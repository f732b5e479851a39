"""End-to-end benchmark of the normgauge CLI pipeline.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Run it from a source checkout: the package is imported from `src/` beside
this directory, and nothing is installed. Each invocation writes its inputs
with `normgauge synth` from the seed. That is the set-up, and it is timed
several times. Then it runs the stages fit -> evaluate -> audit -> classify
-> report back to back, each as its own subprocess, as a user runs them: a
closed loop with one client. Pipelines repeat until `--seconds` have passed
and at least two are done, so that the output trees can be compared byte for
byte and timings are medians.

Times are reported in reference seconds. The speed of a shared host drifts
by 25% within minutes, and the drift moves every stage alike. So a fixed
calibration probe (PROBE, independent of normgauge) runs before and after
every stage, and a stage's wall time is scaled by PROBE_REF_S over the mean
probe time around it. On a quiet host of the reference kind the two agree;
raw wall times are printed in the per-pipeline lines.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it runs
one untraced pipeline and then two traced ones, where each stage runs through
`normgauge.cli.main` with the wrappers of tracer.py installed, and prints the
per-layer metrics. The counts of the two traced pipelines must repeat exactly.

Every run checks the outputs. Each stage that exits non-zero and each failed
check counts into `failed`. Lines before the result give host facts and the
figures of each pipeline; the result JSON object is always the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGES = ("fit", "evaluate", "audit", "classify", "report")
# stages that score a cohort against the model: fit (training metrics),
# evaluate (deviations and metrics) and audit (parity, given --bundle)
SCORING_STAGES = 3
ENTRY = "import sys; from normgauge.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import normgauge.cli; "
    "print(repr(time.perf_counter() - t))"
)
IMPORT_REPEATS = 3
SETUP_REPEATS = 2
MIN_PIPELINES = 2
# fixed interpreter and numpy work in a fresh process, like a stage in small;
# it takes about PROBE_REF_S on a quiet 2-core Xeon host with Python 3.11
PROBE = """
import numpy as np
from scipy import linalg
rng = np.random.default_rng(0)
a = rng.normal(size=(20, 9))
g = a.T @ a + np.eye(9)
for _ in range(3000):
    linalg.cholesky(g, lower=True)
text = ",".join(map(repr, rng.normal(size=60000).tolist()))
table = {str(i): float(x) for i, x in enumerate(text.split(","))}
"""
PROBE_REF_S = 0.6
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Ledger:
    """Counts attempted and failed operations: stage runs and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class StageRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    probe_s: float = PROBE_REF_S  # mean calibration probe time around the run

    @property
    def ref_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s


class Runner:
    """Starts subprocesses in a work directory and measures each one."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        # the single-threaded baseline: idle BLAS threads spin, which on a
        # shared host adds CPU time and noise without speeding up small solves
        for var in THREAD_VARS:
            self.env.setdefault(var, "1")
        self.n = 0
        self.last_probe: float | None = None

    def run(self, argv: list[str], label: str) -> StageRun:
        """Run argv to completion, with its output in a log file."""
        self.n += 1
        log_path = self.logs / f"{self.n:03d}-{label}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{label} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return StageRun(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def stage(self, stage: str, args: list[str], spans: Path | None = None) -> StageRun:
        """One CLI stage, untraced as the console script runs it or traced,
        between two calibration probes; a stage shares its first probe with
        the stage before it."""
        if spans is None:
            argv = [sys.executable, "-c", ENTRY, stage, *args]
        else:
            argv = [
                sys.executable, str(HERE / "tracer.py"),
                "--spans", str(spans), "--stage", stage, "--", stage, *args,
            ]
        before = self.last_probe if self.last_probe is not None else self.probe()
        run = self.run(argv, stage)
        self.last_probe = self.probe()
        run.probe_s = (before + self.last_probe) / 2
        return run

    def probe(self) -> float:
        """Wall time of one calibration probe; a failing probe ends the run."""
        run = self.run([sys.executable, "-c", PROBE], "probe")
        if run.code != 0:
            raise RuntimeError("the calibration probe failed")
        return run.wall_s

    def import_seconds(self) -> float | None:
        """Time to import normgauge.cli in a fresh interpreter."""
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=self.work, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        return float(result.stdout) if result.returncode == 0 else None


def stage_args(wl: Workload, seed: int, pipe: str) -> dict[str, list[str]]:
    cov, feat = "data/covariates.csv", "data/features.csv"
    return {
        "fit": [
            "--covariates", cov, "--features", feat, "--out", f"{pipe}/fit",
            *wl.fit_args(seed),
        ],
        "evaluate": [
            "--bundle", f"{pipe}/fit", "--covariates", cov, "--features", feat,
            "--ids", f"{pipe}/fit/test_ids.txt", "--out", f"{pipe}/eval",
        ],
        "audit": [
            "--deviations", f"{pipe}/eval/deviations.csv",
            "--errors", f"{pipe}/eval/errors.csv",
            "--covariates", cov, "--out", f"{pipe}/audit",
            "--contrasts", *wl.contrasts,
            "--bundle", f"{pipe}/fit", "--features", feat,
        ],
        "classify": [
            "--deviations", f"{pipe}/eval/deviations.csv",
            "--covariates", cov, "--out", f"{pipe}/clf",
        ],
        "report": ["--run-dir", pipe],
    }


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root except run_config.json, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run_config.json"
    }


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """ids and values of an id-keyed CSV matrix, read without the package."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids, rows = [], []
        for row in reader:
            ids.append(row[0])
            rows.append(row[1:])
    return ids, np.array(rows, dtype=float).reshape(len(ids), len(header) - 1)


def check_outputs(wl: Workload, work: Path, pipe: Path, ledger: Ledger) -> dict:
    """Output checks of one pipeline run; returns facts read from its outputs."""
    try:
        held_out = (pipe / "fit" / "test_ids.txt").read_text(encoding="utf-8").split()
        ids, z = read_matrix(pipe / "eval" / "deviations.csv")
        regions = json.loads((pipe / "fit" / "regions.json").read_text(encoding="utf-8"))
        warps = [r["hyperparams"]["warp"] for r in regions["regions"]]
        engaged = sum(1 for w in warps if w["epsilon"] != 0.0 or w["log_delta"] != 0.0)
        nll_sum = float(sum(r["nll"] for r in regions["regions"]))
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        ledger.check(False, f"pipeline outputs unreadable: {exc}")
        return {}
    n_regions = int(wl.spec["n_regions"])
    ledger.check(
        z.shape == (len(held_out), n_regions)
        and sorted(ids) == sorted(held_out)
        and bool(np.all(np.isfinite(z))),
        f"deviations.csv is {z.shape} for {len(held_out)} held-out x {n_regions}, "
        "or not all finite",
    )

    with open(work / "data" / "covariates.csv", newline="", encoding="utf-8") as fh:
        race = {row["id"]: row["race"] for row in csv.DictReader(fh)}
    ref = [i for i, sid in enumerate(ids) if wl.reference_group in (None, race.get(sid))]
    z_mean = float(np.mean(z[ref]))
    z_var = float(np.mean(np.var(z[ref], axis=0)))
    ledger.check(abs(z_mean) <= wl.z_mean_max, f"reference mean Z {z_mean:.4f}")
    lo, hi = wl.z_var_range
    ledger.check(lo <= z_var <= hi, f"reference Z variance {z_var:.4f} not in [{lo}, {hi}]")

    if wl.warp_engaged is not None:
        lo_w, hi_w = wl.warp_engaged
        ledger.check(lo_w <= engaged <= hi_w, f"warp engaged in {engaged} regions")
    return {
        "z_ref_mean": z_mean,
        "z_ref_var": z_var,
        "warp_engaged": engaged,
        "fit_nll_sum": nll_sum,
    }


def setup(wl: Workload, seed: int, runner: Runner, ledger: Ledger, repeats: int,
          spans: Path | None = None) -> list[float]:
    """Write the inputs with `normgauge synth`, `repeats` times; returns the runs."""
    work = runner.work
    (work / "spec.json").write_text(json.dumps(wl.synth_spec(seed)), encoding="utf-8")
    runs, first = [], None
    for _ in range(repeats):
        shutil.rmtree(work / "data", ignore_errors=True)
        run = runner.stage("synth", ["--spec", "spec.json", "--out", "data"], spans)
        runs.append(run)
        if not ledger.check(run.code == 0, f"synth exit code {run.code}"):
            continue
        digest = tree_digest(work / "data")
        if first is None:
            first = digest
        else:
            ledger.check(digest == first, "synth outputs differ between runs")
    return runs


@dataclass
class PipelineRun:
    stages: dict[str, StageRun] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    digest: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return len(self.stages) == len(STAGES) and all(
            r.code == 0 for r in self.stages.values()
        )

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.stages.values())

    @property
    def ref_s(self) -> float:
        return sum(r.ref_s for r in self.stages.values())

    def describe(self) -> str:
        figures = {
            name: {"wall_s": r.wall_s, "probe_s": r.probe_s, "ref_s": r.ref_s,
                   "cpu_s": r.cpu_s, "rss_mb": r.rss_mb}
            for name, r in self.stages.items()
        }
        return "pipeline " + json.dumps({"stages": figures, **self.facts})


def pipeline(wl: Workload, seed: int, runner: Runner, ledger: Ledger,
             spans_dir: Path | None = None) -> PipelineRun:
    """One fit -> report pass into work/pipe, with its output checks."""
    name = "pipe"
    pipe = runner.work / name
    shutil.rmtree(pipe, ignore_errors=True)
    result = PipelineRun()
    for stage, args in stage_args(wl, seed, name).items():
        if any(r.code != 0 for r in result.stages.values()):
            ledger.check(False, f"{stage} not run after an earlier stage failed")
            continue
        spans = spans_dir / f"{stage}.json" if spans_dir is not None else None
        run = runner.stage(stage, args, spans)
        result.stages[stage] = run
        ledger.check(run.code == 0, f"{stage} exit code {run.code}")
    if result.ok:
        result.facts = check_outputs(wl, runner.work, pipe, ledger)
    result.digest = tree_digest(pipe)
    print(result.describe())
    return result


def end_to_end(wl: Workload, seed: int, seconds: float, runner: Runner, ledger: Ledger) -> dict:
    setups = setup(wl, seed, runner, ledger, SETUP_REPEATS)
    runs: list[PipelineRun] = []
    start = time.perf_counter()
    while len(runs) < MIN_PIPELINES or time.perf_counter() - start < seconds:
        run = pipeline(wl, seed, runner, ledger)
        if runs:
            ledger.check(run.digest == runs[0].digest, "output tree differs between runs")
        runs.append(run)

    metrics = {"setup_s": (statistics.median(r.ref_s for r in setups), "s")}
    for stage in ("fit", "evaluate", "audit", "classify"):
        times = [r.stages[stage].ref_s for r in runs if stage in r.stages]
        if times:
            metrics[f"{stage}_s"] = (statistics.median(times), "s")
    complete = [r for r in runs if r.ok]
    if complete:
        metrics["pipeline_s"] = (statistics.median(r.ref_s for r in complete), "s")
    peaks = [max(s.rss_mb for s in r.stages.values()) for r in runs if r.stages]
    metrics["peak_rss_mb"] = (statistics.median(peaks), "MB")
    nll = [r.facts["fit_nll_sum"] for r in runs if r.facts]
    if nll:
        metrics["fit_nll_sum"] = (nll[0], "nats")
    metrics["success_rate"] = (1.0 - ledger.failed / ledger.attempted, "ratio")
    return metrics


# ---------------------------------------------------------------- traced run


def load_traces(spans_dir: Path) -> dict[str, dict]:
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(spans_dir.glob("*.json"))
    }


@dataclass
class LayerTimes:
    totals: dict[str, float] = field(default_factory=dict)  # span name -> seconds
    durations: dict[str, list[float]] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)  # layer or stage -> seconds
    counts: dict[str, float] = field(default_factory=dict)


def layer_times(traces: dict[str, dict], ledger: Ledger) -> LayerTimes:
    """Span totals by name and self time by layer, over the given stage traces.

    The root span of a stage keeps its own name (`cli.fit`), so its self time
    is the stage's time outside every traced call; other spans add their self
    time to their layer. Summed, the self times of a stage equal its span.
    """
    out = LayerTimes()
    for stage, trace in traces.items():
        spans = trace["spans"]
        selfs = self_times(spans)
        root_s = spans[0]["end"] - spans[0]["start"]
        ledger.check(
            abs(sum(selfs) - root_s) <= 1e-6 * max(1.0, root_s),
            f"self times of {stage} do not add up to its span",
        )
        for span, own in zip(spans, selfs):
            name = span["name"]
            duration = span["end"] - span["start"]
            out.totals[name] = out.totals.get(name, 0.0) + duration
            out.durations.setdefault(name, []).append(duration)
            key = name if span["parent"] is None else name.split(".")[0]
            out.self_s[key] = out.self_s.get(key, 0.0) + own
        for name, value in trace["counts"].items():
            out.counts[name] = out.counts.get(name, 0) + value
    return out


TIMED_SPANS = (
    "serialize.read_matrix_csv", "serialize.write_csv", "serialize.dump_json",
    "cohort.read_covariates", "cohort.load_cohort", "cohort.stratified_split",
    "cohort.save_cohort", "synth.generate", "design.apply_design",
    "blr.fit_normative", "blr.optimizer", "blr.predict_region", "blr.deviations",
    "blr.fit_metrics", "blr.load_bundle", "blr.save_bundle",
    "audit.parity_report", "audit.group_summary", "audit.group_difference",
    "audit.bh_fdr", "classify.cross_validate", "classify.fit_ovr_logistic",
)
COUNTS = (
    "serialize.read_matrix_csv_calls", "cohort.read_covariates_calls",
    "design.apply_design_calls", "blr.predict_region_calls",
    "classify.fit_ovr_logistic_calls", "blr.optimizer_runs",
    "blr.optimizer_unsuccessful", "blr.optimizer_nfev_identity",
    "blr.optimizer_nfev_free", "blr.optimizer_nit", "blr.callback_evals",
    "warp.nonidentity_calls", "classify.optimizer_nfev",
)
LAYERS = ("serialize", "cohort", "synth", "design", "blr", "warp", "audit", "classify")


def per_layer_metrics(wl: Workload, t: LayerTimes, engaged: int) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for stage in ("synth", *STAGES):
        m[f"cli.{stage}.self_s"] = (t.self_s.get(f"cli.{stage}", 0.0), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_s.get(layer, 0.0), "s")
    for name in TIMED_SPANS:
        m[f"{name}_s"] = (t.totals.get(name, 0.0), "s")
    m["warp.s"] = (
        t.totals.get("warp.warp_forward", 0.0) + t.totals.get("warp.warp_inverse", 0.0),
        "s",
    )
    for name in COUNTS:
        m[name] = (t.counts.get(name, 0), "count")
    m["serialize.read_bytes"] = (t.counts.get("serialize.read_bytes", 0), "bytes")
    m["serialize.write_bytes"] = (t.counts.get("serialize.write_bytes", 0), "bytes")

    fits = t.durations.get("blr.fit_region", [])
    p50 = statistics.median(fits) if fits else 0.0
    p90 = statistics.quantiles(fits, n=10)[8] if len(fits) >= 2 else p50
    m["blr.fit_region_p50_ms"] = (1e3 * p50, "ms")
    m["blr.fit_region_p90_ms"] = (1e3 * p90, "ms")
    m["blr.warp_engaged"] = (engaged, "count")
    # a ratio with nothing attempted wastes nothing, so it reads 1
    free_runs = t.counts.get("blr.optimizer_runs_free", 0)
    m["blr.free_run_useful_ratio"] = (engaged / free_runs if free_runs else 1.0, "ratio")
    predicts = t.counts.get("blr.predict_region_calls", 0)
    useful = int(wl.spec["n_regions"]) * SCORING_STAGES
    m["blr.scoring_useful_ratio"] = (useful / predicts if predicts else 1.0, "ratio")
    return m


def counts_diff(a: dict, b: dict) -> dict:
    return {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}


def traced(wl: Workload, seed: int, runner: Runner, ledger: Ledger) -> dict:
    work = runner.work
    setup_dir = work / "spans_setup"
    setup_dir.mkdir()
    setup(wl, seed, runner, ledger, 1, spans=setup_dir / "synth.json")
    setup_traces = load_traces(setup_dir)

    imports = [runner.import_seconds() for _ in range(IMPORT_REPEATS)]
    imports = [s for s in imports if ledger.check(s is not None, "import normgauge.cli")]

    untraced = pipeline(wl, seed, runner, ledger)
    runs = []
    for k in range(2):
        spans_dir = work / f"spans_{k}"
        spans_dir.mkdir()
        run = pipeline(wl, seed, runner, ledger, spans_dir)
        ledger.check(run.digest == untraced.digest, "traced output tree differs from untraced")
        runs.append((run, layer_times(setup_traces | load_traces(spans_dir), ledger)))
    (run_a, times_a), (run_b, times_b) = runs
    ledger.check(
        times_a.counts == times_b.counts,
        f"counts differ between traced runs: {counts_diff(times_a.counts, times_b.counts)}",
    )

    # the thread-pool fit, against the single-threaded fit stage traced above
    w2_dir = work / "spans_w2"
    w2_dir.mkdir()
    args = stage_args(wl, seed, "pipe_w2")["fit"] + ["--workers", "2"]
    w2_s = 0.0
    if ledger.check(runner.stage("fit", args, w2_dir / "fit.json").code == 0, "fit --workers 2"):
        w2 = load_traces(w2_dir)["fit"]
        # byte counts differ by design: run_config.json records the options
        w1_counts, w2_counts = (
            {k: v for k, v in c.items() if not k.endswith("_bytes")}
            for c in (load_traces(work / "spans_0")["fit"]["counts"], w2["counts"])
        )
        ledger.check(
            w2_counts == w1_counts,
            f"fit counts differ with 2 workers: {counts_diff(w1_counts, w2_counts)}",
        )
        ledger.check(
            tree_digest(work / "pipe_w2" / "fit") == tree_digest(work / "pipe" / "fit"),
            "fit outputs differ with 2 workers",
        )
        w2_s = sum(s["end"] - s["start"] for s in w2["spans"] if s["name"] == "blr.fit_normative")

    # times are the mean of the two traced runs; counts repeat, so take one
    engaged = run_a.facts.get("warp_engaged", 0)
    layer_a = per_layer_metrics(wl, times_a, engaged)
    layer_b = per_layer_metrics(wl, times_b, engaged)
    metrics = {
        name: (value if unit in ("count", "bytes") else (value + layer_b[name][0]) / 2, unit)
        for name, (value, unit) in layer_a.items()
    }
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    metrics["blr.fit_normative_w2_s"] = (w2_s, "s")
    traced_s = (run_a.ref_s + run_b.ref_s) / 2
    metrics["trace.untraced_pipeline_s"] = (untraced.ref_s, "s")
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced.ref_s, "ratio")
    return metrics


# ---------------------------------------------------------------------- main


def host_facts(env: dict) -> dict:
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="normgauge CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normgauge" / "cli.py").is_file():
        print(f"error: no normgauge sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    ledger = Ledger()
    try:
        runner = Runner(work)
        if args.trace:
            metrics = traced(wl, args.seed, runner, ledger)
        else:
            metrics = end_to_end(wl, args.seed, args.seconds, runner, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            work.parent.rmdir()
    print("host " + json.dumps(host_facts(runner.env)))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
