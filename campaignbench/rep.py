"""One campaign run in a fresh interpreter, timed end to end.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 campaignbench/rep.py SPEC OUT CACHE JOBS SPAWNED [TRACE_DIR]

``SPAWNED`` is ``run.py``'s ``time.perf_counter()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports, spec load and expansion and ``Engine``
construction.  ``OUT`` of ``-`` stops after set-up.  With ``TRACE_DIR``
the layer recorders of ``tracing.py`` are installed first.  The last
line of standard output is one JSON object of measurements.
"""

from time import perf_counter

import json
import resource
import sys
from pathlib import Path


def main(argv: list) -> int:
    spec_path, out, cache_dir, jobs, spawned = argv[:5]
    trace_dir = Path(argv[5]) if len(argv) > 5 else None
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    recorder = None
    if trace_dir is not None:
        sys.path.insert(0, str(root / "campaignbench"))
        import tracing

        recorder = tracing.install(trace_dir)

    from repro.campaign import expand_units, load_spec, run_campaign
    from repro.exec import Engine, ResultCache

    spec = load_spec(spec_path)
    units = expand_units(spec)
    engine = Engine(jobs=int(jobs), cache=ResultCache(cache_dir))
    start = perf_counter()
    report = {"setup_s": start - float(spawned), "units": len(units)}
    if out == "-":
        engine.close()
        print(json.dumps(report))
        return 0

    first_row = []

    def on_progress(_tracker: object) -> None:
        if not first_row:
            first_row.append(perf_counter())

    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    summary = run_campaign(spec, out, engine=engine, on_progress=on_progress)
    end = perf_counter()
    engine.close()  # reaps the pool, so its CPU time is counted below
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if recorder is not None:
        recorder.span("bench.campaign", start, end)
        recorder.flush()
    cpu = sum(
        (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        for before, after in ((own0, own1), (kids0, kids1))
    )
    report.update(
        wall_s=end - start,
        first_row_s=(first_row[0] if first_row else end) - start,
        cpu_s=cpu,
        peak_rss_mb=own1.ru_maxrss / 1024.0,
        executed=summary.executed,
        rows=summary.rows,
        interrupted=summary.interrupted,
        csv=str(summary.csv_path) if summary.csv_path else None,
        exec_stats=engine.stats,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
