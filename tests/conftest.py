"""Fixtures shared by the test modules."""

import os
import sys

import pytest


def _force_cpus(request, monkeypatch, cpus):
    """Make serialize's CPU probe see `cpus` usable CPUs and count os.fork.

    The CPUs it sees are this process's own, lowest first, and after them
    higher numbers, which it may not run on, so that a part held to a CPU the
    probe reports runs there wherever this process may. A forked iteration
    gives back the CPUs the probe reported, so this process gets its own back
    as the test ends. Returns the list of child pids that os.fork hands to
    the caller.
    """
    own = sorted(getattr(os, "sched_getaffinity", lambda pid: ())(0))
    past = max(own, default=-1) + 1
    seen = own[:cpus] + list(range(past, past + cpus - len(own)))
    if own:
        request.addfinalizer(lambda: os.sched_setaffinity(0, own))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(seen), raising=False)
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture(params=["forked", "in-process"])
def forks(request, monkeypatch):
    """Force one path of serialize._forked_map through its CPU probe.

    Returns the list of child pids that os.fork handed to the caller, and
    whether the forked path was forced.
    """
    forked = request.param == "forked"
    if forked and not sys.platform.startswith("linux"):
        pytest.skip("the forked path is Linux-only")
    return _force_cpus(request, monkeypatch, 2 if forked else 1), forked


@pytest.fixture(params=[1, 2, 3])
def usable_cpus(request, monkeypatch):
    """Force 1, 2 or 3 usable CPUs through serialize's CPU probe.

    Returns the list of child pids that os.fork handed to the caller, and the
    number of CPUs.
    """
    if request.param > 1 and not sys.platform.startswith("linux"):
        pytest.skip("the forked path is Linux-only")
    return _force_cpus(request, monkeypatch, request.param), request.param
