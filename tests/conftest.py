"""Fixtures shared by the test modules."""

import os
import sys

import pytest


@pytest.fixture(params=["forked", "in-process"])
def forks(request, monkeypatch):
    """Force one path of serialize._forked_map through its CPU probe.

    Returns the list of child pids that os.fork handed to the caller, and
    whether the forked path was forced.
    """
    forked = request.param == "forked"
    if forked and not sys.platform.startswith("linux"):
        pytest.skip("the forked path is Linux-only")
    cpus = {0, 1} if forked else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids, forked
