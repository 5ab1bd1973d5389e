"""Always-on smoke coverage of the fault-injection subsystem.

Fast counterpart of the ``fault-resilience`` / ``fault-retry`` checks of
``bench_experiments.py`` (which are marked ``slow``): one tiny chaotic cell per
assertion, small enough for the tier-1 run and the CI bench-smoke job.  Covers the end-to-end path — chaos profile → schedule →
controller → infrastructure failure classes → metrics — plus the determinism
and no-fault-bit-identity contracts the subsystem is built on.
"""

from repro.bench.experiments import QUICK_SCALE, base_config, scaled_workload
from repro.bench.harness import run_experiment
from repro.core.failures import INFRASTRUCTURE, FailureType
from repro.faults.spec import FaultConfig

CHAOS = FaultConfig(
    peer_crash_rate=0.3,
    peer_downtime=1.5,
    orderer_outages=((1.0, 0.8),),
    endorsement_loss_rate=0.05,
)


def _chaos_config(**overrides):
    return base_config(
        QUICK_SCALE,
        cluster="C1",
        workload=scaled_workload("EHR", QUICK_SCALE),
        arrival_rate=60.0,
        block_size=10,
        database="leveldb",
        **overrides,
    ).with_overrides(duration=3.0)


def test_chaos_produces_infrastructure_failures_and_costs_throughput():
    healthy = run_experiment(_chaos_config()).analyses[0].metrics
    chaotic = run_experiment(_chaos_config(faults=CHAOS)).analyses[0].metrics
    report = chaotic.failure_report
    assert healthy.failure_report.pct(*INFRASTRUCTURE) == 0.0
    assert healthy.fault_injections == {}
    assert report.pct(*INFRASTRUCTURE) > 0.0
    assert chaotic.fault_injections.get("orderer_outage_start") == 1
    assert chaotic.fault_injections.get("peer_crash", 0) >= 1
    assert chaotic.committed_throughput < healthy.committed_throughput


def test_orderer_outage_refuses_submissions():
    # An outage-only profile (no crashes competing for the same transactions)
    # pins the ORDERER_UNAVAILABLE path: submissions inside the window are
    # refused, and the deferred block cut drains the pre-outage batch after
    # the window ends.
    outage_only = FaultConfig(orderer_outages=((1.0, 1.0),))
    metrics = run_experiment(_chaos_config(faults=outage_only)).analyses[0].metrics
    assert metrics.failure_report.pct(FailureType.ORDERER_UNAVAILABLE) > 0.0
    assert metrics.failure_report.pct(FailureType.PEER_UNAVAILABLE) == 0.0
    assert metrics.fault_injections == {
        "orderer_outage_end": 1,
        "orderer_outage_start": 1,
    }
    assert metrics.committed_transactions > 0


def test_chaos_runs_are_deterministic():
    first = run_experiment(_chaos_config(faults=CHAOS)).analyses[0].metrics
    second = run_experiment(_chaos_config(faults=CHAOS)).analyses[0].metrics
    assert first.committed_throughput == second.committed_throughput
    assert first.failure_report.as_dict() == second.failure_report.as_dict()
    assert first.fault_injections == second.fault_injections


def test_disabled_fault_config_keeps_the_cell_hash():
    # A default FaultConfig is omitted from the canonical payload, so the
    # cell hash — and with it every derived seed and cached result — is the
    # one the configuration had before the fault subsystem existed.
    assert (
        _chaos_config().cell_hash()
        == _chaos_config(faults=FaultConfig()).cell_hash()
    )
    assert _chaos_config().cell_hash() != _chaos_config(faults=CHAOS).cell_hash()
