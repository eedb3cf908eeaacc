"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 campaignbench/spread.py --workload ne-grid --seeds 0-9

Runs ``run.py`` once per seed (``run_seconds`` from ``BENCHMARK.json``
unless ``--seconds`` is given) and prints, per metric, the median, the
quartiles and the interquartile range as a share of the median next to
the metric's bound.  A metric is steady when its spread stays below a
third of its bound.  The summary is also written to
``.campaignbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    """``"0-4"`` or ``"1,5,9"`` into a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: failed (exit {done.returncode}) "
                  f"{done.stderr.strip()[-300:]}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = stats.quartiles(series)
        spread = stats.spread(series)
        bound = bounds.get(name)
        summary[name] = {"values": series, "q1": q1, "median": q2,
                         "q3": q3, "spread": spread, "bound": bound}
        flag = "" if bound is None else (
            "steady" if spread < bound / 3 else "UNSTEADY")
        print(f"{name:14s} median {q2:10.4f}  spread {spread:7.4f}  "
              f"bound {bound}  {flag}")
    out = ROOT / ".campaignbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
