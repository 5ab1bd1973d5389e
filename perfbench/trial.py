"""One trial of one workload, in a process of its own.

``python3 -m perfbench.trial --workload W --seed N --repetition R --mode M``
runs the workload's job once and prints one JSON record as its last line.  A
fresh process per trial keeps ``ru_maxrss`` and the import cost honest and stops
one trial's heap from slowing the next.

* ``job``   — the job timed from outside, with the calibration kernel sampling
  the machine's speed from inside it (``calibrate.Speedometer``).
* ``setup`` — the same job with its simulated duration clipped to 1 ms: what a
  job pays before its first transaction.  The caller times the whole process.
* ``trace`` — the job under cProfile, rolled up by layer (see ``layers.py``).
  Worker pools are replaced by in-process execution, except where the workload
  says ``traced_with_workers`` (``ehr-8ch-sharded``: the parent only is traced).
* ``check`` — the job alone, for its digest (the twin of a sharded run).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import OUT_DIR, calibrate  # noqa: E402

import repro.bench.runner  # noqa: E402,F401  (the import every job pays first)

from perfbench.workloads import (  # noqa: E402
    PROCESS_BUDGET_ENV,
    WORKLOADS,
    Cell,
    JobOutcome,
    max_processes,
)

_IMPORT_S = time.perf_counter() - _STARTED

MODES = ("job", "setup", "trace", "check")


def _cpu_seconds(times: os.times_result) -> tuple:
    return times.user + times.system, times.children_user + times.children_system


def run(workload_name: str, seed: int, repetition: int, mode: str, smoke: bool) -> dict:
    """Run one trial and return its record."""
    spec = WORKLOADS[workload_name]
    workers = max_processes()
    if mode == "trace" and not spec.traced_with_workers:
        workers = 1
    os.environ[PROCESS_BUDGET_ENV] = str(workers)
    scratch_root = OUT_DIR / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)

    record = {
        "workload": workload_name,
        "seed": seed,
        "repetition": repetition,
        "mode": mode,
        "workers": workers,
        "import_s": _IMPORT_S,
        "loadavg": list(os.getloadavg()),
    }
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:

        def job() -> JobOutcome:
            try:
                return spec.job(seed, workers, Path(scratch), repetition=repetition, smoke=smoke,
                                setup_only=mode == "setup")
            except Exception as error:  # a cell that raises is a failed operation
                traceback.print_exc()
                return JobOutcome(cells=[Cell(spec.name, failure=f"raised {error!r}")])

        if mode == "trace":
            from perfbench import layers

            outcome, wall, stats = layers.profile(job)
            record["layers"] = layers.roll_up(stats, wall)
        elif mode == "job":
            cpu_before = os.times()
            started = time.perf_counter()
            with calibrate.Speedometer() as speedometer:
                outcome = job()
            gross = time.perf_counter() - started
            wall = gross - speedometer.total_s
            # Timings taken inside the job lose the slices' share too.
            outcome.timed = {name: value * wall / gross for name, value in outcome.timed.items()}
            own_0, children_0 = _cpu_seconds(cpu_before)
            own_1, children_1 = _cpu_seconds(os.times())
            own = own_1 - own_0 - speedometer.total_s
            record.update(
                slowdown=speedometer.slowdown(),
                cpu_s_raw=own + (children_1 - children_0),
                parent_cpu_s=own,
                children_cpu_s=children_1 - children_0,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                worker_peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0,
            )
        else:
            started = time.perf_counter()
            outcome = job()
            wall = time.perf_counter() - started
    record.update(
        wall_s_raw=wall,
        attempts=outcome.attempts,
        digest=outcome.digest,
        cells=[{"name": cell.name, "failure": cell.failure} for cell in outcome.cells],
        timed=outcome.timed,
        cache_mb_per_cell=outcome.cache_mb_per_cell,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.trial",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repetition", type=int, default=0)
    parser.add_argument("--mode", choices=MODES, default="job")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.repetition, args.mode, args.smoke)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
