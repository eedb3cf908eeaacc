"""Shared recorder for the ``BENCH_*.json`` trajectory files.

Each hot-path benchmark appends one record per run to its own JSON list
at the repo root and gates the new reading against the *median* of this
machine's prior records.  A below-threshold reading is re-measured
before it counts: a genuine structural slowdown fails every remeasure,
while a noise spike clears on retry.

Usage::

    ledger = Ledger("BENCH_cc.json")
    prior = ledger.same_machine()           # before appending
    ledger.append(acks=ACKS, acks_per_s=rates)
    guard_regression(rate, history, remeasure, "acks/s", label=name)
"""

import json
import pathlib
import platform
import time
from statistics import median

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Tolerated slowdown vs the median recorded rate on this machine.
REGRESSION_SLACK = 0.05

#: Re-measures a below-threshold reading gets before it fails.
REMEASURES = 3


class Ledger:
    """One ``BENCH_<name>.json`` file: a JSON list of run records."""

    def __init__(self, filename):
        self.path = REPO_ROOT / filename

    def records(self):
        """Every record, oldest first (empty when the file is absent)."""
        if not self.path.exists():
            return []
        return json.loads(self.path.read_text())

    def same_machine(self):
        """Prior records taken on this machine's architecture."""
        machine = platform.machine()
        return [r for r in self.records() if r.get("machine") == machine]

    def append(self, **fields):
        """Append ``{date, machine, **fields}`` and rewrite the file."""
        records = self.records()
        records.append(
            {
                "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "machine": platform.machine(),
                **fields,
            }
        )
        self.path.write_text(json.dumps(records, indent=2) + "\n")


def guard_regression(rate, history, remeasure, unit, label=None):
    """Assert ``rate`` is within :data:`REGRESSION_SLACK` of the median
    of ``history`` (no-op without history), calling ``remeasure()`` up
    to :data:`REMEASURES` times before a low reading counts."""
    if not history:
        return
    recorded = median(history)
    threshold = (1.0 - REGRESSION_SLACK) * recorded
    for _ in range(REMEASURES):
        if rate >= threshold:
            break
        rate = remeasure()
    prefix = f"{label}: " if label is not None else ""
    assert rate >= threshold, (
        f"{prefix}{rate} {unit} is more than "
        f"{REGRESSION_SLACK:.0%} below the recorded median {recorded}"
    )
