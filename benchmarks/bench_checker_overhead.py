"""Isolation-checker overhead: events/sec with checking off vs on, per cell
(extension beyond the paper, see repro.checker).

The wall-clock half of the overhead contract lives here, out of tier-1: the
exact work proxies (edges per committed transaction, one listener per
terminal event) are pinned in ``test_checker_overhead_smoke.py`` on the same
fixed cell.
"""

import gc
import statistics
import time

from conftest import run_figure
from test_checker_overhead_smoke import CHECKED_CELL, SMOKE_CELL

from repro.bench.harness import ExperimentConfig, run_repetition

ROUNDS = 5
OVERHEAD_FLOOR = 0.90  # checked events/sec must stay within 10% of unchecked


def test_checker_overhead_grid(benchmark, scale):
    report = run_figure(benchmark, "checker-overhead", scale)
    # Every cell of the grid must come back certified: these are conflict-free
    # ww/wr/rw histories ordered by commit, so a refutation here is a checker
    # bug, not an interesting anomaly.
    assert set(report.column("verdict")) == {"CERTIFIED-SERIALIZABLE"}
    # The per-cell wall-clock ratios are noisy at quick scale (the runs are
    # tens of milliseconds); the enforced <= 10% floor is the paired median
    # guard below.  Here the grid-wide median must stay under a loose 25% to
    # catch order-of-magnitude regressions in the incremental graph
    # maintenance.
    overheads = sorted(report.column("overhead_pct"))
    median = overheads[len(overheads) // 2]
    assert median <= 25.0, f"median checker overhead {median:.1f}% across the grid"


def timed_cell(config: ExperimentConfig) -> float:
    """Events/sec of one full-pipeline run, timed as a user runs it
    (``run_repetition`` defers full collections itself — see
    :mod:`repro.sim.collector`)."""
    # Start like a fresh process, with nothing owed: chained runs have the
    # scope reclaim the previous run's cyclic garbage on entry, and a checked
    # cell leaves more of it than an unchecked one — inside the other's timer.
    gc.collect()
    start = time.perf_counter()
    analysis = run_repetition(config, 0)
    wall = time.perf_counter() - start
    return sum(analysis.record.lifecycle_counts.values()) / wall


def test_checker_overhead_within_ten_percent():
    # Warm both code paths once; the first pass through the network/chaincode
    # code in a process runs well below steady state.
    timed_cell(SMOKE_CELL)
    timed_cell(CHECKED_CELL)
    # Each round pairs one unchecked run with one checked run back to back
    # and the guard takes the median of the per-round ratios, so scheduler
    # jitter cancels out; both are the same deterministic cell, event for
    # event (asserted by the smoke module).
    ratios = []
    for _ in range(ROUNDS):
        baseline_eps = timed_cell(SMOKE_CELL)
        ratios.append(timed_cell(CHECKED_CELL) / baseline_eps)
    ratio = statistics.median(ratios)
    assert ratio >= OVERHEAD_FLOOR, (
        f"pipeline with isolation checking sustained a median {ratio:.3f}x of the "
        f"unchecked events/sec over {ROUNDS} paired rounds "
        f"({[f'{r:.3f}' for r in ratios]}); floor is {OVERHEAD_FLOOR}x"
    )
