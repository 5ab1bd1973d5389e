"""Integration tests asserting the paper's qualitative findings on small runs.

Each test checks one of the directional claims of the evaluation (Section 5)
using configurations small enough to finish in a couple of seconds.  Margins
are chosen generously so the assertions are robust to simulation noise.
"""

from __future__ import annotations


from repro.bench.harness import ExperimentConfig, run_experiment
from repro.network.config import NetworkConfig
from repro.workload.workloads import (
    read_update_uniform,
    synthetic_workload,
    uniform_workload,
)


def config(
    variant="fabric-1.4",
    cluster="C1",
    workload=None,
    arrival_rate=60.0,
    duration=4.0,
    zipf_skew=1.0,
    seed=31,
    **net_overrides,
) -> ExperimentConfig:
    network_kwargs = dict(cluster=cluster, block_size=20)
    network_kwargs.update(net_overrides)
    return ExperimentConfig(
        variant=variant,
        workload=workload or uniform_workload("EHR", patients=60),
        network=NetworkConfig(**network_kwargs),
        arrival_rate=arrival_rate,
        duration=duration,
        zipf_skew=zipf_skew,
        repetitions=1,
        seed=seed,
    )


def test_failures_increase_with_arrival_rate():
    slow = run_experiment(config(arrival_rate=15))
    fast = run_experiment(config(arrival_rate=90))
    assert fast.value("mvcc_pct") > slow.value("mvcc_pct")


def test_update_heavy_fails_more_than_insert_heavy():
    update_heavy = run_experiment(config(workload=synthetic_workload("UH", num_keys=5000)))
    insert_heavy = run_experiment(config(workload=synthetic_workload("IH", num_keys=5000)))
    assert update_heavy.value("failures_pct") > insert_heavy.value("failures_pct") + 2


def test_skewed_key_access_increases_failures():
    uniform = run_experiment(config(workload=read_update_uniform(num_keys=5000), zipf_skew=0.0))
    skewed = run_experiment(config(workload=read_update_uniform(num_keys=5000), zipf_skew=2.0))
    assert skewed.value("failures_pct") > uniform.value("failures_pct") + 10


def test_leveldb_is_not_slower_than_couchdb():
    level = run_experiment(config(database="leveldb"))
    couch = run_experiment(config(database="couchdb"))
    assert level.value("latency_s") <= couch.value("latency_s")


def test_more_organizations_mean_more_endorsement_failures():
    few = run_experiment(config(cluster="C2", orgs=2, peers_per_org=2, arrival_rate=80, duration=6))
    many = run_experiment(config(cluster="C2", orgs=10, peers_per_org=2, arrival_rate=80, duration=6))
    assert many.value("endorsement_policy_pct") >= few.value("endorsement_policy_pct")


def test_network_delay_increases_endorsement_failures_and_latency():
    baseline = run_experiment(
        config(cluster="C2", orgs=4, peers_per_org=2, arrival_rate=80, duration=6)
    )
    delayed = run_experiment(
        config(
            cluster="C2",
            orgs=4,
            peers_per_org=2,
            arrival_rate=80,
            duration=6,
            delayed_orgs=(0,),
        )
    )
    assert delayed.value("latency_s") > baseline.value("latency_s")
    assert delayed.value("endorsement_policy_pct") > baseline.value("endorsement_policy_pct")


def test_streamchain_beats_fabric_at_low_rates():
    fabric = run_experiment(config(arrival_rate=30))
    stream = run_experiment(config(variant="streamchain", arrival_rate=30))
    assert stream.value("latency_s") < fabric.value("latency_s")
    assert stream.value("failures_pct") < fabric.value("failures_pct")


def test_streamchain_saturates_at_high_rates():
    stream_low = run_experiment(config(variant="streamchain", arrival_rate=30, duration=6))
    stream_high = run_experiment(config(variant="streamchain", arrival_rate=200, duration=6))
    assert stream_high.value("failures_pct") > stream_low.value("failures_pct")
    assert stream_high.value("latency_s") > stream_low.value("latency_s")


def test_fabricsharp_eliminates_mvcc_but_not_endorsement_failures():
    sharp = run_experiment(config(variant="fabricsharp", arrival_rate=80, duration=6))
    fabric = run_experiment(config(arrival_rate=80, duration=6))
    assert sharp.value("mvcc_pct") == 0.0
    assert sharp.value("failures_pct") < fabric.value("failures_pct")


def test_fabricsharp_helps_update_heavy_but_not_insert_heavy():
    fabric_uh = run_experiment(
        config(workload=synthetic_workload("UH", num_keys=5000), arrival_rate=80)
    )
    sharp_uh = run_experiment(
        config(
            variant="fabricsharp",
            workload=synthetic_workload("UH", include_range=False, num_keys=5000),
            arrival_rate=80,
        )
    )
    assert sharp_uh.value("failures_pct") < fabric_uh.value("failures_pct")
    sharp_ih = run_experiment(
        config(
            variant="fabricsharp",
            workload=synthetic_workload("IH", include_range=False, num_keys=5000),
            arrival_rate=80,
        )
    )
    assert sharp_ih.value("failures_pct") < 10.0  # insert-heavy stays essentially conflict free


def test_fabricpp_reduces_failures_at_the_default_block_size():
    fabric = run_experiment(
        config(cluster="C2", arrival_rate=100, duration=6, block_size=100)
    )
    fabricpp = run_experiment(
        config(cluster="C2", variant="fabric++", arrival_rate=100, duration=6, block_size=100)
    )
    assert fabricpp.value("failures_pct") < fabric.value("failures_pct")


def test_fabricpp_does_not_rescue_chaincodes_with_large_range_queries():
    """Section 5.2.3: with DV's 400+ key range queries Fabric++ stops being a win.

    Fabric++ clearly improves the EHR chaincode, but for DV the conflict-graph
    construction over huge read sets keeps the ordering service saturated, so
    latency stays in the collapsed regime and the failure rate stays high.
    """
    dv = uniform_workload("DV", voters=400)
    fabric_dv = run_experiment(config(workload=dv, arrival_rate=40, duration=4, block_size=50))
    fabricpp_dv = run_experiment(
        config(variant="fabric++", workload=dv, arrival_rate=40, duration=4, block_size=50)
    )
    fabricpp_ehr = run_experiment(
        config(variant="fabric++", arrival_rate=40, duration=4, block_size=50)
    )
    # Fabric++ cannot bring DV anywhere near healthy latency or failure levels.
    assert fabricpp_dv.value("latency_s") > 5 * fabricpp_ehr.value("latency_s")
    assert fabricpp_dv.value("latency_s") > 0.5 * fabric_dv.value("latency_s")
    assert fabricpp_dv.value("failures_pct") > 50.0


def test_block_size_matters_for_failures():
    small = run_experiment(config(arrival_rate=80, duration=6, block_size=10))
    large = run_experiment(config(arrival_rate=80, duration=6, block_size=200))
    assert abs(small.value("failures_pct") - large.value("failures_pct")) > 1.0
