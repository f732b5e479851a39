"""Spans and counts recorded from outside the package.

The tracer rebinds public functions of normgauge's modules to timing wrappers.
A function is replaced under every name a normgauge module bound it to
(`cli.fit_normative`, `audit.fit_metrics`, `blr.predict_region`, ...), so calls
made between modules and calls made inside a module are both seen. scipy's
`minimize`, as bound in `normgauge.blr` and `normgauge.classify`, is wrapped to
count optimizer work: runs, evaluations, iterations and failures, with identity
runs told from free runs by their pinned bounds.

Every span records name, start, end and parent, so a span's self time is its
duration minus the time its children cover. Nothing under `src/` is changed:
the wrappers live only in the process that installs them.

Run as a script, it executes one CLI stage through `normgauge.cli.main` with
tracing installed and writes the spans and counts as JSON:

    python perfbench/tracer.py --spans OUT.json --stage fit -- fit --covariates ...
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# (module, function) pairs wrapped in a span named "<layer>.<function>"; the
# layer is the defining module. A pair missing from the package is skipped, so
# the same tracer runs on versions that delete or rename a function.
TRACED = (
    ("serialize", "dump_json"),
    ("serialize", "load_json"),
    ("serialize", "write_csv"),
    ("serialize", "write_matrix_csv"),
    ("serialize", "read_matrix_csv"),
    ("cohort", "read_covariates"),
    ("cohort", "load_cohort"),
    ("cohort", "save_cohort"),
    ("cohort", "qc_filter"),
    ("cohort", "stratified_split"),
    ("cohort", "demographics_summary"),
    ("synth", "generate"),
    ("design", "fit_design"),
    ("design", "apply_design"),
    ("blr", "fit_normative"),
    ("blr", "fit_region"),
    ("blr", "predict_region"),
    ("blr", "deviations"),
    ("blr", "fit_metrics"),
    ("blr", "save_bundle"),
    ("blr", "load_bundle"),
    ("audit", "group_summary"),
    ("audit", "group_difference"),
    ("audit", "bh_fdr"),
    ("audit", "significant_fraction"),
    ("audit", "parity_report"),
    ("classify", "cross_validate"),
    ("classify", "evaluate_holdout"),
    ("classify", "fit_ovr_logistic"),
    ("classify", "write_clf_metrics"),
    ("classify", "write_roc_points"),
    ("classify", "write_confusion"),
)

# calls whose file size is counted: span name -> (count, index of the path argument)
SIZED = {
    "serialize.read_matrix_csv": ("serialize.read_bytes", 0),
    "serialize.load_json": ("serialize.read_bytes", 0),
    "serialize.write_csv": ("serialize.write_bytes", 0),
    "serialize.dump_json": ("serialize.write_bytes", 1),
}

# warp calls are traced only where blr makes them; synth's use of the warp is
# input generation, not model work
WARP_FUNCTIONS = ("warp_forward", "warp_inverse")
OPTIMIZER_MODULES = ("blr", "classify")


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span list plus named counts; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "start": time.perf_counter(),
                    "end": None,
                    "parent": stack[-1] if stack else None,
                }
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        self._stack().pop()
        self.spans[index]["end"] = now

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, kwargs, result) runs inside it."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        return traced

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _rebind(original, wrapper, modules) -> None:
    """Replace every binding of `original` in the given modules."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "normgauge" or name.startswith("normgauge."))
    ]


def _optimizer_wrapper(tracer: Tracer, layer: str, minimize):
    def traced_minimize(fun, x0, *args, **kwargs):
        bounds = kwargs.get("bounds")
        pinned = bounds is not None and any(lo == hi for lo, hi in bounds)
        callback = kwargs.get("callback")
        if callback is not None and layer == "blr":

            def counted(*cb_args, **cb_kwargs):
                tracer.add("blr.callback_evals")
                return callback(*cb_args, **cb_kwargs)

            kwargs["callback"] = counted
        index = tracer.begin(f"{layer}.optimizer")
        try:
            res = minimize(fun, x0, *args, **kwargs)
        finally:
            tracer.end(index)
        tracer.add(f"{layer}.optimizer_runs")
        tracer.add(f"{layer}.optimizer_nfev", int(res.nfev))
        tracer.add(f"{layer}.optimizer_nit", int(getattr(res, "nit", 0)))
        if not res.success:
            tracer.add(f"{layer}.optimizer_unsuccessful")
        if layer == "blr":
            kind = "identity" if pinned else "free"
            tracer.add(f"blr.optimizer_runs_{kind}")
            tracer.add(f"blr.optimizer_nfev_{kind}", int(res.nfev))
        return res

    traced_minimize.__wrapped__ = minimize
    return traced_minimize


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever a normgauge module has bound them."""
    import normgauge.cli  # noqa: F401  (with the package, imports every module)

    modules = _package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}

    for layer, func in TRACED:
        module = by_name.get(layer)
        original = getattr(module, func, None) if module is not None else None
        if original is None:
            continue
        name = f"{layer}.{func}"

        def after(args, kwargs, result, name=name, sized=SIZED.get(name)):
            tracer.add(name + "_calls")
            if sized is not None:
                counter, position = sized
                path = args[position] if len(args) > position else kwargs.get("path")
                tracer.add(counter, _file_size(path))

        _rebind(original, tracer.wrap(name, original, after), modules)

    blr = by_name.get("blr")
    if blr is not None:
        for func in WARP_FUNCTIONS:
            original = getattr(blr, func, None)
            if original is None:
                continue

            def after(args, kwargs, result):
                params = args[1] if len(args) > 1 else kwargs["params"]
                if not params.is_identity():
                    tracer.add("warp.nonidentity_calls")

            setattr(blr, func, tracer.wrap(f"warp.{func}", original, after))

    for layer in OPTIMIZER_MODULES:
        module = by_name.get(layer)
        minimize = getattr(module, "minimize", None) if module is not None else None
        if minimize is not None:
            setattr(module, "minimize", _optimizer_wrapper(tracer, layer, minimize))


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children of one parent run on the parent's thread, one after another, so
    their intervals do not overlap and the union is their sum.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one normgauge CLI stage traced")
    parser.add_argument("--spans", required=True, help="JSON file for spans and counts")
    parser.add_argument("--stage", required=True, help="stage name for the root span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    install(tracer)
    from normgauge import cli

    index = tracer.begin(f"cli.{args.stage}")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(index)
    Path(args.spans).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
