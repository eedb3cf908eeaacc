"""Campaign benchmark entry point.

Runs one workload (see ``RATIONALE.md``) through the public campaign
API, one fresh interpreter per campaign run, and prints every metric by
name and unit; the last line of standard output is one JSON object::

    python3 campaignbench/run.py --workload ne-grid --seed 0 \\
        --seconds 30 --trace 0

Closed loop: one campaign process at a time, started when the previous
one ends, for about ``--seconds`` seconds (at least one run).  Metrics
are medians over the runs.  ``--trace 0`` reports the end-to-end
metrics with tracing off.  ``--trace 1`` alternates untraced and traced
runs and reports the per-layer metrics of the traced ones plus
``bench.trace_overhead_frac``.  Every run's outputs are checked
(``checks.py``); a full record with provenance is written under
``.campaignbench/records/``.

``--record-reference`` instead runs the workload once and stores its
output digest (and NE sets) in ``reference.json`` for later checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only processes run after each untraced campaign: set-up
#: varies by up to 25% between processes, so its median needs more
#: samples than the campaigns alone give.
SETUP_PER_CYCLE = 2
#: Set-up is also measured alone until this many samples exist.
SETUP_SAMPLES = 5
#: A single campaign process may not run longer than this (normal runs
#: take under 10 s; a whole invocation must end within 180 s).
RUN_TIMEOUT_S = 120.0
#: Environment switches of the program that must not leak into runs.
PROGRAM_ENV = ("REPRO_TRACE", "REPRO_CHECK", "REPRO_PROFILE_POINTS",
               "REPRO_FLUID_SUBSTRATE")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "first_row_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: The layer expected to do most of each workload's work.
DOMINANT = {
    "ne-bisect": ("fluidsim.scalar",),
    "ne-grid": ("fluidsim.vec",),
    "packet-aqm": ("sim", "cc"),
}


def _env(work: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_campaign_process(
    spec: Path,
    out: Optional[Path],
    cache: Path,
    jobs: int,
    work: Path,
    trace_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """One fresh campaign process; its JSON report, or ``{"error"}``."""
    argv = [
        sys.executable,
        str(BENCH / "rep.py"),
        str(spec),
        str(out) if out is not None else "-",
        str(cache),
        str(jobs),
        "",  # the spawn time, filled in last
    ]
    if trace_dir is not None:
        argv.append(str(trace_dir))
    argv[6] = repr(perf_counter())
    # A session of its own, so a hung run can be stopped together with
    # its pool workers.
    child = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(work),
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {child.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def provenance(seed: int) -> Dict[str, Any]:
    """Machine and code identity recorded with every result."""
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "git_dirty": dirty,
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
    }


class Run:
    """One benchmark invocation: a workload, a seed, a work directory."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.workload = workloads.build(name, seed)
        self.seed = seed
        self.work = work
        self.spec = work / "spec.json"
        self.spec.write_bytes(self.workload.spec_bytes())
        self.reference = checks.load_reference()
        from repro.campaign import expand_units, load_spec

        self.units = len(expand_units(load_spec(self.spec)))
        self.expected: Optional[bytes] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.checked: List[Dict[str, Any]] = []
        self.count = 0

    def _fail(self, units: int, problem: str) -> None:
        self.attempted += units
        self.failed += units
        self.problems.append(problem)

    def campaign(self, trace: bool = False) -> Optional[Dict[str, Any]]:
        """Run and check one campaign, on a cold cache of its own; its
        report, or None on failure."""
        self.count += 1
        out = self.work / f"out-{self.count}"
        cache = self.work / f"cache-{self.count}"
        trace_dir = self.work / f"trace-{self.count}" if trace else None
        report = run_campaign_process(
            self.spec, out, cache, self.workload.jobs, self.work, trace_dir
        )
        try:
            if "error" in report:
                self._fail(self.units, report["error"])
                return None
            outcome, record = checks.check_run(
                self.workload.name, self.seed, out, report, self.reference,
                expected=self.expected, n_flows=workloads.NE_FLOWS,
                buffers=workloads.NE_BUFFERS,
            )
            if self.expected is None and not outcome.failed:
                self.expected = (out / "results.csv").read_bytes()
            self.attempted += outcome.units
            self.failed += outcome.failed
            self.problems.extend(outcome.problems)
            record.update(trace=trace, failed=outcome.failed)
            self.checked.append(record)
            if trace_dir is not None:
                report["trace"] = tracing.load(trace_dir)
            return report if not outcome.failed else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(cache, ignore_errors=True)
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)

    def setup(self) -> Optional[float]:
        """Set-up time of one campaign process that stops there."""
        report = run_campaign_process(
            self.spec, None, self.work / "setup-cache", self.workload.jobs,
            self.work,
        )
        if "error" in report:
            self._fail(1, f"set-up run: {report['error']}")
            return None
        self.attempted += 1
        return report["setup_s"]


def measure(run: Run, seconds: float, trace: bool) -> Tuple[
    List[Dict[str, Any]], List[Dict[str, Any]], List[float]
]:
    """Closed loop for ``seconds``: untraced campaigns, each followed by
    set-up-only processes or, with ``trace``, by a traced campaign."""
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    setups: List[float] = []
    cycles: List[float] = []

    def sample_setup() -> bool:
        value = run.setup()
        if value is not None:
            setups.append(value)
        return value is not None

    start = perf_counter()
    while True:
        begin = perf_counter()
        report = run.campaign()
        if report is not None:
            untraced.append(report)
            setups.append(report["setup_s"])
        if trace:
            report = run.campaign(trace=True)
            if report is not None:
                traced.append(report)
        else:
            for _ in range(SETUP_PER_CYCLE):
                sample_setup()
        cycles.append(perf_counter() - begin)
        elapsed = perf_counter() - start
        if elapsed + stats.median(cycles) > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES and sample_setup():
        pass
    return untraced, traced, setups


def end_to_end(
    untraced: List[Dict[str, Any]], setups: List[float]
) -> Dict[str, Dict[str, Any]]:
    metrics = {}
    for name, unit in END_TO_END.items():
        values = setups if name == "setup_s" else [r[name] for r in untraced]
        metrics[name] = {"value": stats.median(values), "unit": unit}
    return metrics


def per_layer(
    run: Run, untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Median per-layer metrics over the traced runs, the overhead, and
    which layer did most of the work."""
    ne_rows = -1
    if run.workload.name == "ne-grid":
        ne_rows = sum(len(ks) for ks in run.checked[-1]["ne_exhaustive"]
                      .values())
    samples: Dict[str, List[float]] = {}
    layer_samples: Dict[str, List[float]] = {}
    for report in traced:
        values, layers = tracing.layer_metrics(
            report["trace"], report["wall_s"], ne_rows)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        for name, value in layers.items():
            layer_samples.setdefault(name, []).append(value)
    metrics = {
        name: {"value": stats.median(samples[name]), "unit": unit}
        for name, unit in tracing.METRICS.items()
    }
    traced_wall = stats.median([r["wall_s"] for r in traced])
    untraced_wall = stats.median([r["wall_s"] for r in untraced])
    metrics["bench.trace_overhead_frac"] = {
        "value": traced_wall / untraced_wall - 1.0, "unit": "ratio"}
    layers = {k: stats.median(v) for k, v in layer_samples.items()}
    dominant = max(layers, key=layers.get)
    # Layer times add up over processes, so compare with CPU time when
    # pool workers ran in parallel.
    busy = max(traced_wall, stats.median([r["cpu_s"] for r in traced]),
               sum(layers.values()))
    share = layers[dominant] / busy
    expected = DOMINANT[run.workload.name]
    verdict = {
        "layer_self_s": layers,
        "traced_wall_s": traced_wall,
        "dominant": dominant,
        "dominant_share": share,
        "busy_s": busy,
        "expected": list(expected),
        "confirmed": dominant in expected,
        "isolated": share >= 0.5,
    }
    if share < 0.5:
        verdict["note"] = (
            f"{dominant} does {share:.0%} of the traced busy time; this "
            "workload does not isolate one layer"
        )
    return metrics, verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output digest and exit")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so running campaign
    # processes are stopped and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("campaignbench: no src/repro next to the benchmark; run it "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".campaignbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        origin = provenance(args.seed)
        if args.record_reference:
            return record_reference(run)
        untraced, traced, setups = measure(run, args.seconds,
                                           bool(args.trace))
        if run.failed or not untraced or (args.trace and not traced):
            print(f"campaignbench: {args.workload} failed: "
                  f"{'; '.join(run.problems[:3])}", file=sys.stderr)
        record: Dict[str, Any] = {
            "workload": args.workload,
            "provenance": origin,
            "seconds": args.seconds,
            "runs": {"untraced": len(untraced), "traced": len(traced)},
            "checks": run.checked,
            "problems": run.problems,
        }
        correct = not run.failed and bool(untraced)
        if args.trace:
            correct = correct and bool(traced)
            if correct:
                metrics, verdict = per_layer(run, untraced, traced)
                record["layers"] = verdict
            else:
                metrics = {}
        else:
            metrics = end_to_end(untraced, setups) if correct else {}
        record["metrics"] = metrics
        record["end_to_end_runs"] = [
            dict({k: r[k] for k in END_TO_END}, exec_stats=r["exec_stats"])
            for r in untraced
        ]
        write_record(record, args.trace)
        for name, metric in metrics.items():
            print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
        if "layers" in record:
            layers = record["layers"]
            print(f"dominant layer: {layers['dominant']} "
                  f"({layers['dominant_share']:.0%} of traced busy time; "
                  f"expected {'/'.join(layers['expected'])})")
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, run.attempted),
            "failed": run.failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_record(record: Dict[str, Any], trace: int) -> None:
    records = ROOT / ".campaignbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    seed = record["provenance"]["seed"]
    name = (f"{record['workload']}-seed{seed}-trace{trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (records / name).write_text(json.dumps(record, indent=1) + "\n")


def record_reference(run: Run) -> int:
    """Run once and store the digest (and NE sets) for this seed."""
    report = run.campaign()
    if report is None:
        print(f"campaignbench: {run.problems}", file=sys.stderr)
        return 1
    checked = run.checked[-1]
    entry = {"csv_sha256": checked["csv_sha256"]}
    if "ne" in checked:
        entry["ne"] = checked["ne"]
    reference = checks.load_reference()
    reference.setdefault(run.workload.name, {})[str(run.seed)] = entry
    checks.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps({run.workload.name: {str(run.seed): entry}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
