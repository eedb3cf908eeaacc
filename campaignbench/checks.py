"""Output checks applied to every benchmark run.

* ``results.csv`` must match the reference digest recorded in
  ``reference.json`` when one exists for the workload and seed, and be
  identical across the runs of one invocation;
* every numeric cell must be finite;
* ``ne-grid``'s per-buffer NE set, derived from its own CSV with the
  §4.4 condition ``bisect_nash`` applies, must contain the equilibria
  ``ne-bisect`` found for the same seed (recorded in ``reference.json``).
  For a seed without a recorded ``ne-bisect`` result the NE check is
  marked not applicable in the run's record.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: {buffer_bdp: sorted challenger counts at equilibrium}
NeSets = Dict[str, List[int]]


class Outcome:
    """What the checks of one campaign run found."""

    def __init__(self, units: int) -> None:
        self.units = units
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str, units: Optional[int] = None) -> None:
        """Mark ``units`` units failed (all of them by default)."""
        self.problems.append(problem)
        count = self.units if units is None else units
        self.failed = min(self.units, self.failed + count)


def load_reference() -> Dict[str, Any]:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_rows(data: bytes) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def nonfinite_rows(rows: Sequence[Dict[str, str]]) -> int:
    """Rows holding a numeric cell that is NaN or infinite."""
    bad = 0
    for row in rows:
        for cell in row.values():
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                bad += 1
                break
    return bad


def bisect_ne_sets(
    rows: Sequence[Dict[str, str]], buffers: Sequence[float] = ()
) -> NeSets:
    """Equilibria listed by an adaptive (bisection) campaign's CSV;
    ``buffers`` without a row map to the empty set."""
    sets: NeSets = {str(float(buffer)): [] for buffer in buffers}
    for row in rows:
        sets.setdefault(row["buffer_bdp"], []).append(
            int(row["ne_challenger"])
        )
    return {buffer: sorted(ks) for buffer, ks in sets.items()}


def grid_tables(
    rows: Sequence[Dict[str, str]],
) -> Dict[str, Dict[int, Tuple[float, float]]]:
    """Per buffer: ``k -> (per-flow CUBIC, per-flow BBR)`` in Mbps."""
    tables: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for row in rows:
        k = 0
        for entry in row["mix"].split(","):
            cc, _sep, count = entry.partition(":")
            if cc == "bbr":
                k = int(count)
        tables.setdefault(row["buffer_bdp"], {})[k] = (
            float(row["per_flow_mbps:cubic"]),
            float(row["per_flow_mbps:bbr"]),
        )
    return tables


def is_ne(table: Dict[int, Tuple[float, float]], n: int, k: int) -> bool:
    """§4.4: no BBR flow gains by switching to CUBIC (k -> k-1) and no
    CUBIC flow gains by switching to BBR (k -> k+1) — the test
    ``repro.core.game.bisect_nash`` applies to its candidates."""
    cubic_k, bbr_k = table[k]
    if k > 0 and bbr_k < table[k - 1][0]:
        return False
    if k < n and cubic_k < table[k + 1][1]:
        return False
    return True


def grid_ne_sets(rows: Sequence[Dict[str, str]], n: int) -> NeSets:
    """Every NE of each buffer's exhaustive split table."""
    return {
        buffer: [k for k in range(n + 1) if is_ne(table, n, k)]
        for buffer, table in grid_tables(rows).items()
    }


def check_run(
    workload: str,
    seed: int,
    out_dir: Path,
    report: Dict[str, Any],
    reference: Dict[str, Any],
    expected: Optional[bytes],
    n_flows: int,
    buffers: Sequence[float],
) -> Tuple[Outcome, Dict[str, Any]]:
    """Check one campaign run's outputs.

    ``expected`` is the CSV every run of this invocation must repeat
    (the first run's); ``n_flows`` and ``buffers`` are the NE
    workloads' flow count and buffer depths.  Returns the outcome and a
    record of what was compared.
    """
    outcome = Outcome(report.get("units", 1))
    record: Dict[str, Any] = {}
    csv_path = out_dir / "results.csv"
    if report.get("interrupted") or not csv_path.is_file():
        outcome.fail("no results.csv")
        return outcome, record
    data = csv_path.read_bytes()
    record["csv_sha256"] = digest(data)
    rows = read_rows(data)
    record["rows"] = len(rows)
    bad = nonfinite_rows(rows)
    if bad:
        outcome.fail(f"{bad} row(s) with non-finite cells", bad)
    stats = report.get("exec_stats", {})
    if stats.get("cache_errors") or stats.get("worker_failures"):
        outcome.fail(f"engine reported errors: {stats}")
    if workload != "ne-bisect" and len(rows) != outcome.units:
        outcome.fail(f"{len(rows)} rows for {outcome.units} units")

    ref = reference.get(workload, {}).get(str(seed))
    if ref is not None:
        record["reference_sha256"] = ref["csv_sha256"]
        if ref["csv_sha256"] != record["csv_sha256"]:
            outcome.fail("results.csv differs from the reference digest")
    if expected is not None and data != expected:
        outcome.fail("results.csv differs from an earlier run's")

    if workload == "ne-bisect":
        record["ne"] = bisect_ne_sets(rows, buffers)
    elif workload == "ne-grid":
        grid = grid_ne_sets(rows, n_flows)
        record["ne_exhaustive"] = grid
        bisect_ref = reference.get("ne-bisect", {}).get(str(seed))
        if bisect_ref is None:
            record["ne_check"] = (
                "not applicable: no ne-bisect result recorded for this seed")
            return outcome, record
        bisect = bisect_ref["ne"]
        record["ne_bisect"] = bisect
        record["ne_check"] = "applied"
        for buffer, ks in bisect.items():
            missing = set(ks) - set(grid.get(buffer, []))
            if missing:
                outcome.fail(
                    f"bisection NE {sorted(missing)} at {buffer} BDP "
                    "not in the exhaustive set"
                )
    return outcome, record
