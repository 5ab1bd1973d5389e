"""The reported latency quantiles are exact: ``percentile`` over the recorded chain.

A quantile of a run is a statistic of the bag of its latencies, so it must
equal the linear-interpolation percentile of the samples the chain records —
``committed_at - submitted_at`` of every attempt that ended.  Neither it nor
any other field of the fold may depend on the order the channels' tallies are
folded in.  Checked on the three analysis cells of the golden corpus, the
aggregate and every channel.
"""

from __future__ import annotations

import pytest
from corpus import ANALYSIS_CELLS, build, run

from repro.channels import merge
from repro.core.analyzer import LedgerAnalyzer
from repro.lifecycle.tally import fold
from repro.sim.stats import percentile

FRACTIONS = {"p50": 0.5, "p95": 0.95, "p99": 0.99}


def exact_quantiles(transactions) -> dict:
    latencies = [
        tx.committed_at - tx.submitted_at for tx in transactions if tx.committed_at is not None
    ]
    return {name: percentile(latencies, fraction) for name, fraction in FRACTIONS.items()}


@pytest.mark.parametrize("name", list(ANALYSIS_CELLS))
def test_latency_quantiles_are_the_percentiles_of_the_recorded_chain(name, monkeypatch):
    folded = []
    monkeypatch.setattr(
        merge, "fold", lambda tallies: folded.append(list(tallies)) or fold(tallies)
    )
    config = ANALYSIS_CELLS[name]
    analysis = LedgerAnalyzer().analyze(run(build(config, record_chain=True), config))
    channel_records = {channel.index: channel.record for channel in analysis.record.channel_records}
    scopes = [("aggregate", analysis.metrics, analysis.record)] + [
        (f"channel {channel.index}", channel.metrics, channel_records[channel.index])
        for channel in analysis.channel_analyses
    ]
    for scope, metrics, record in scopes:
        exact = exact_quantiles(record.transactions)
        assert metrics.latency_quantiles == exact, f"{name} / {scope}"
    if channel_records:
        (tallies,) = folded
        assert len(tallies) == len(channel_records) == 8
        # Folded in reverse channel order, the whole aggregate stays.
        assert fold(tallies[::-1]) == fold(tallies), f"{name}: fold order moved it"
        # And they are those of the channels' samples taken channel by channel.
        by_channel = [
            tx for index in sorted(channel_records, reverse=True)
            for tx in channel_records[index].transactions
        ]
        assert exact_quantiles(by_channel) == analysis.metrics.latency_quantiles, name
