"""Smoke target: one quick figure per system family, through the runner.

These are plain (non-``benchmark``) tests at a deliberately tiny scale, so
they run inside the tier-1 suite in a couple of seconds.  They exercise the
full figure → :class:`~repro.bench.runner.ExperimentRunner` → cache path for
each variant family of the paper — Fabric 1.4 (Figure 6), Fabric++
(Figure 17), Streamchain (Figure 20) and FabricSharp (Figure 24) — and assert
that a cached regeneration is served without re-simulating and reproduces the
rows exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from bench_experiments import CHECKS

from repro.bench.experiments import EXPERIMENTS, QUICK_SCALE, regenerate
from repro.bench.runner import ExperimentRunner, ResultCache

#: The quick scale with the duration trimmed so each family smokes in ~a second.
SMOKE_SCALE = dataclasses.replace(QUICK_SCALE, name="smoke", duration=2.0, block_sizes=(10, 50))

_FAMILIES = [
    ("fabric-1.4", "fig6", {}),
    ("fabric++", "fig17", {"block_size": (10, 50)}),
    ("streamchain", "fig20", {"arrival_rate": (10, 40)}),
    ("fabricsharp", "fig24", {"arrival_rate": (10, 40)}),
]


@pytest.mark.parametrize("family,figure,axes", _FAMILIES, ids=[name for name, _, _ in _FAMILIES])
def test_family_figure_smokes_under_runner(family, figure, axes):
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    report = regenerate(figure, SMOKE_SCALE, runner=runner, **axes)
    assert report.rows, f"{family} figure produced no rows"
    assert runner.stats.tasks_run > 0
    assert runner.stats.cache_hits == 0

    cached = regenerate(figure, SMOKE_SCALE, runner=runner, **axes)
    assert cached.rows == report.rows
    assert runner.stats.tasks_run == 0
    assert runner.stats.cache_hits == runner.stats.tasks_total


#: A disk entry is the cell's detached analysis: a few KB whatever the cell
#: simulated.  With the chain inside, ``fig6``'s two smoke cells weighed 144 KB
#: and 158 KB.  The integer proxy of the ``sweep-grid`` wall-clock claim: a size
#: repeats exactly on any machine.
ENTRY_CEILING_BYTES = 16 * 1024


def test_disk_entries_hold_no_chain(tmp_path):
    cold = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    report = regenerate("fig6", SMOKE_SCALE, runner=cold)
    sizes = sorted(entry.stat().st_size for entry in tmp_path.glob("*.pkl"))
    assert len(sizes) == cold.stats.tasks_run == 2
    assert sizes[-1] <= ENTRY_CEILING_BYTES, f"{sum(sizes)} bytes in {len(sizes)} entries: {sizes}"
    assert cold.stats.cache_bytes == sum(sizes)

    warm = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    cached = regenerate("fig6", SMOKE_SCALE, runner=warm)
    assert cached.rows == report.rows
    assert (warm.stats.tasks_run, warm.stats.cache_hits) == (0, warm.stats.tasks_total)
    assert warm.stats.cache_bytes == sum(sizes)


def test_every_experiment_has_a_slow_check():
    # A spec added without a check fails here, before the slow suite runs.
    assert set(CHECKS) == set(EXPERIMENTS)
