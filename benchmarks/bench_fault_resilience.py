"""Fault resilience under chaos: committed throughput degrades with the peer
crash rate, and jittered-backoff client retries recover a measurable fraction
of the goodput lost to transient infrastructure faults (extension beyond the
paper, see repro.faults).

The run records both sweeps to ``BENCH_fault_resilience.json`` at the repo
root and asserts the acceptance bars in-test.
"""

import json
from pathlib import Path

from conftest import run_figure

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_fault_resilience.json"


def _record(section: str, report) -> None:
    """Merge one report's rows into the benchmark result file."""
    document = {}
    if RESULT_PATH.exists():
        document = json.loads(RESULT_PATH.read_text())
    document[section] = {
        "title": report.title,
        "headers": list(report.headers),
        "rows": [list(row) for row in report.rows],
    }
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")


def test_fault_resilience_degrades_throughput(benchmark, scale):
    report = run_figure(benchmark, "fault-resilience", scale)
    _record("fault_resilience", report)
    rates = report.column("peer_crash_rate")
    throughput = dict(zip(rates, report.column("committed_throughput_tps")))
    goodput = dict(zip(rates, report.column("goodput_tps")))
    unavailable = dict(zip(rates, report.column("peer_unavailable_pct")))
    healthy, crashiest = rates[0], rates[-1]
    # The healthy baseline takes the bit-identical no-fault path...
    assert healthy == 0.0
    assert unavailable[healthy] == 0.0
    # ...and chaos costs real capacity: the crashiest cell loses a measurable
    # share of committed throughput and goodput while the infrastructure
    # failure class appears.
    assert throughput[crashiest] < 0.9 * throughput[healthy]
    assert goodput[crashiest] < goodput[healthy]
    assert unavailable[crashiest] > 0.0


def test_fault_retry_interaction_recovers_goodput(benchmark, scale):
    report = run_figure(benchmark, "fault-retry", scale)
    _record("fault_retry_interaction", report)
    policies = report.column("retry_policy")
    recovered = dict(zip(policies, report.column("recovered_request_pct")))
    committed = dict(zip(policies, report.column("committed_requests")))
    effective = dict(zip(policies, report.column("client_effective_failure_pct")))
    resubmissions = dict(zip(policies, report.column("resubmissions")))
    # Without retries every transient fault permanently loses its request.
    assert resubmissions["none"] == 0
    assert recovered["none"] == 0.0
    # Jittered backoff outlasts the transient faults and resubmits after they
    # clear: a measurable fraction (>= 15%) of the requests the no-retry
    # clients permanently lose end up committing — goodput's numerator — and
    # the client-effective failure rate drops below the no-retry baseline.
    assert recovered["jittered"] >= 15.0
    assert committed["jittered"] > committed["none"]
    assert effective["jittered"] < effective["none"]
