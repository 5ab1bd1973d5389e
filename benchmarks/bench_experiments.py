"""Every table, figure and extension scenario: regenerate it, assert its trend.

One parametrised benchmark runs each entry of
:data:`repro.bench.experiments.EXPERIMENTS` through the one executor and
hands the report to the check registered for its id in :data:`CHECKS` — the
quantitative acceptance bar behind the spec's ``expected_trend``.
``test_smoke_runner.py`` fails when an id has none.
"""

import pytest
from figure_runner import run_figure

#: The quick scale restricts these sweeps so the benchmark finishes on a
#: laptop (Figure 4: two chaincodes on the C2 cluster; Figure 5: EHR only;
#: Figure 12: three organization counts; Figure 18: EHR and the range-heavy
#: DV); pass REPRO_BENCH_SCALE=standard or paper for the full grids.
QUICK_AXES = {
    "fig4": {"chaincode": ("EHR", "DRM"), "cluster": ("C2",)},
    "fig5": {"chaincode": ("EHR",)},
    "fig12": {"organizations": (2, 6, 10)},
    "fig18": {"chaincode": ("EHR", "DV")},
}


def check_table02_chaincode_profiles(report):
    assert {"EHR", "DV", "SCM", "DRM", "genChain"} == set(report.column("chaincode"))


def check_table04_database_types(report):
    # LevelDB must beat CouchDB on latency for the range-heavy workload (paper: 4.1 s vs 101.6 s).
    couch = report.value("latency_s", workload="RaH", database="couchdb")
    level = report.value("latency_s", workload="RaH", database="leveldb")
    assert level < couch
    # Per-call GetState latency must reflect the Table 4 gap (0.6 ms vs 8.3 ms).
    assert report.value("GetState_ms", workload="RH", database="couchdb") > report.value(
        "GetState_ms", workload="RH", database="leveldb"
    )


def check_fig04_best_block_size(report):
    # The best block size must not shrink as the arrival rate grows (EHR, C2).
    ehr = [row for row in report.rows if row[0] == "EHR" and row[1] == "C2"]
    rates = sorted(row[2] for row in ehr)
    best_by_rate = {row[2]: row[3] for row in ehr}
    assert best_by_rate[rates[-1]] >= best_by_rate[rates[0]]


def check_fig05_minmax_failures(report):
    # Choosing the best block size must reduce failures at every rate.
    for row in report.rows:
        least = row[report.headers.index("least_failures_pct")]
        most = row[report.headers.index("most_failures_pct")]
        assert least <= most


def check_fig06_latency_throughput(report):
    latencies = dict(zip(report.column("block_size"), report.column("latency_s")))
    # Latency is not minimal at the largest block size (block fill time dominates there).
    largest = max(latencies)
    assert min(latencies.values()) < latencies[largest]


def check_fig07_mvcc_by_block_size(report):
    sizes = report.column("block_size")
    intra = dict(zip(sizes, report.column("intra_block_pct")))
    inter = dict(zip(sizes, report.column("inter_block_pct")))
    # Intra-block conflicts grow with the block size; inter-block conflicts shrink.
    assert intra[max(sizes)] > intra[min(sizes)]
    assert inter[max(sizes)] < inter[min(sizes)]


def check_fig08_mvcc_by_arrival_rate(report):
    rates = report.column("arrival_rate")
    total = dict(zip(rates, report.column("total_mvcc_pct")))
    # MVCC read conflicts increase with the transaction arrival rate.
    assert total[max(rates)] > total[min(rates)]


def check_fig09_endorsement_by_block_size(report):
    values = report.column("endorsement_failures_pct")
    # Endorsement policy failures stay within a few percent at every block size
    # (they are caused by world-state inconsistency, not by batching).
    assert max(values) <= 10.0


def check_fig10_phantom_by_block_size(report):
    values = report.column("phantom_read_pct")
    # Phantom reads occur at every block size and no block size eliminates them.
    assert min(values) > 0.0


def check_fig11_database_effect(report):
    # LevelDB yields lower latency than CouchDB.
    assert report.value("latency_s", database="leveldb") < report.value(
        "latency_s", database="couchdb"
    )


def check_fig12_organizations(report):
    orgs = report.column("organizations")
    endorsement = dict(zip(orgs, report.column("endorsement_pct")))
    latency = dict(zip(orgs, report.column("latency_s")))
    # More organizations -> more endorsement policy failures and higher latency.
    assert endorsement[max(orgs)] >= endorsement[min(orgs)]
    assert latency[max(orgs)] > latency[min(orgs)]


def check_fig13_endorsement_policies(report):
    endorsement = dict(zip(report.column("policy"), report.column("endorsement_pct")))
    # P0 (all organizations must sign) fails at least as often as P1 (Org0 plus
    # any one other), which needs a strict subset of P0's signatures.  The other
    # pairings are within single-run noise at quick scale.
    assert endorsement["P0"] >= endorsement["P1"]


def check_fig14_workload_mix(report):
    failures = dict(zip(report.column("workload"), report.column("failures_pct")))
    # Update-heavy fails most; insert- and delete-heavy workloads fail least.
    assert failures["UH"] == max(failures.values())
    assert failures["IH"] <= failures["RH"]
    assert failures["DH"] <= failures["RH"]


def check_fig15_zipf_skew(report):
    failures = dict(zip(report.column("zipf_skew"), report.column("failures_pct")))
    # Failures increase monotonically with the skew (paper: 29.6 / 67.5 / 94.3 %).
    assert failures[0.0] < failures[1.0] < failures[2.0]


def check_fig16_network_delay(report):
    # At the highest rate, the delayed configuration has higher latency and at
    # least as many endorsement policy failures.
    rates = sorted(set(report.column("arrival_rate")))
    top_rate = rates[-1]
    delayed = report.rows_where(arrival_rate=top_rate, delayed=True)[0]
    baseline = report.rows_where(arrival_rate=top_rate, delayed=False)[0]
    latency_index = report.headers.index("latency_s")
    endorsement_index = report.headers.index("endorsement_pct")
    assert delayed[latency_index] > baseline[latency_index]
    assert delayed[endorsement_index] >= baseline[endorsement_index]


def check_fig17_fabricpp_block_size(report):
    # At the default block size (100) Fabric++ reduces the total failures.
    fabric = report.value("failures_pct", variant="fabric-1.4", block_size=100)
    fabricpp = report.value("failures_pct", variant="fabric++", block_size=100)
    assert fabricpp < fabric


def check_fig18_fabricpp_chaincodes(report):
    # The chaincode with large range queries (DV) keeps a (much) higher latency
    # and failure rate than EHR even under Fabric++ (Section 5.2.3).
    dv_latency = report.value("latency_s", variant="fabric++", chaincode="DV")
    ehr_latency = report.value("latency_s", variant="fabric++", chaincode="EHR")
    assert dv_latency > ehr_latency
    dv_failures = report.value("failures_pct", variant="fabric++", chaincode="DV")
    ehr_failures = report.value("failures_pct", variant="fabric++", chaincode="EHR")
    assert dv_failures > ehr_failures


def check_fig19_fabricpp_workloads(report):
    # Fabric++ must not make the conflict-free insert-heavy workload much worse
    # and must not lose against Fabric 1.4 on the update-heavy workload.
    fabric_uh = report.value("failures_pct", variant="fabric-1.4", series="workload", point="UH")
    fabricpp_uh = report.value("failures_pct", variant="fabric++", series="workload", point="UH")
    assert fabricpp_uh <= fabric_uh + 2.0
    fabricpp_ih = report.value("failures_pct", variant="fabric++", series="workload", point="IH")
    assert fabricpp_ih < 15.0


def check_fig20_streamchain_load(report):
    # At every evaluated rate Streamchain has (much) lower latency than Fabric 1.4.
    for rate in sorted(set(report.column("arrival_rate"))):
        fabric = report.value("latency_s", variant="fabric-1.4", arrival_rate=rate)
        stream = report.value("latency_s", variant="streamchain", arrival_rate=rate)
        assert stream < fabric


def check_fig21_streamchain_throughput(report):
    # On the C1 cluster at 200 tps, Fabric 1.4 commits more transactions to the
    # chain than Streamchain, which saturates (Section 5.3.1).
    fabric = report.value(
        "committed_throughput_tps", cluster="C1", arrival_rate=200, variant="fabric-1.4"
    )
    stream = report.value(
        "committed_throughput_tps", cluster="C1", arrival_rate=200, variant="streamchain"
    )
    assert fabric > stream


def check_fig22_streamchain_workloads(report):
    # Streamchain reduces failures regardless of the type of workload (Section 5.3.2):
    # check the most conflict-prone series points.
    for series, point in (("workload", "UH"), ("skew", "2.0")):
        fabric = report.value("failures_pct", variant="fabric-1.4", series=series, point=point)
        stream = report.value("failures_pct", variant="streamchain", series=series, point=point)
        assert stream <= fabric


def check_fig23_streamchain_ramdisk(report):
    top_rate = max(report.column("arrival_rate"))
    with_ram = report.value("latency_s", system="Streamchain", arrival_rate=top_rate)
    without_ram = report.value("latency_s", system="Streamchain w/o ramdisk", arrival_rate=top_rate)
    # The RAM disk is responsible for a large part of Streamchain's advantage.
    assert with_ram < without_ram


def check_fig24_fabricsharp_load(report):
    top_rate = max(report.column("arrival_rate"))
    # FabricSharp eliminates MVCC read conflicts entirely ...
    assert report.value("mvcc_pct", variant="fabricsharp", arrival_rate=top_rate) == 0.0
    # ... reduces the recorded failures dramatically ...
    assert report.value("failures_pct", variant="fabricsharp", arrival_rate=top_rate) < report.value(
        "failures_pct", variant="fabric-1.4", arrival_rate=top_rate
    )
    # ... but commits fewer transactions to the blockchain.
    assert report.value(
        "committed_throughput_tps", variant="fabricsharp", arrival_rate=top_rate
    ) < report.value("committed_throughput_tps", variant="fabric-1.4", arrival_rate=top_rate)


def check_fig25_fabricsharp_workloads(report):
    # FabricSharp dramatically reduces failures for the update-heavy workload
    # (paper: 23.03 % -> 2.34 %) and for highly skewed key access
    # (paper: 94.32 % -> 4.63 %).
    assert report.value(
        "failures_pct", variant="fabricsharp", series="workload", point="UH"
    ) < report.value("failures_pct", variant="fabric-1.4", series="workload", point="UH")
    assert report.value(
        "failures_pct", variant="fabricsharp", series="skew", point="2.0"
    ) < report.value("failures_pct", variant="fabric-1.4", series="skew", point="2.0")


def check_fig26_system_comparison(report):
    top_rate = max(report.column("arrival_rate"))
    fabric_failures = report.value("failures_pct", variant="fabric-1.4", arrival_rate=top_rate)
    # Streamchain and FabricSharp clearly reduce the total failures; Fabric++
    # is only on par at this block size (10) because there is little intra-block
    # reordering potential in tiny blocks (Section 5.2.1).
    for variant in ("streamchain", "fabricsharp"):
        assert report.value("failures_pct", variant=variant, arrival_rate=top_rate) < fabric_failures
    assert (
        report.value("failures_pct", variant="fabric++", arrival_rate=top_rate)
        <= fabric_failures + 3.0
    )
    # ... and Streamchain has the lowest latency of all systems.
    latencies = {
        variant: report.value("latency_s", variant=variant, arrival_rate=top_rate)
        for variant in ("fabric-1.4", "fabric++", "streamchain", "fabricsharp")
    }
    assert latencies["streamchain"] == min(latencies.values())


def check_ablation_adaptive_block_size(report):
    # Across the evaluated arrival rates the adaptive policy accumulates no more
    # failures than always running with the large static block size.
    adaptive = sum(
        row[report.headers.index("failures_pct")]
        for row in report.rows_where(policy="adaptive")
    )
    static_large = sum(
        row[report.headers.index("failures_pct")]
        for row in report.rows_where(policy="static-large")
    )
    assert adaptive <= static_large + 1.0


def check_ablation_readonly_filtering(report):
    submit = report.value("committed_throughput_tps", submit_read_only=True)
    skip = report.value("committed_throughput_tps", submit_read_only=False)
    # Skipping read-only transactions reduces what is written to the chain.
    assert skip < submit


def check_ablation_client_side_check(report):
    # The optional client-side check must not increase latency.
    with_check = report.value("latency_s", client_side_check=True)
    without_check = report.value("latency_s", client_side_check=False)
    assert with_check <= without_check * 1.1


def check_channels_scaling_throughput_and_aborts(report):
    throughput = dict(
        zip(report.column("channels"), report.column("committed_throughput_tps"))
    )
    mvcc = dict(zip(report.column("channels"), report.column("mvcc_pct")))
    # At 0% cross-channel rate, sharding a saturated single orderer across
    # channels raises aggregate throughput, and the lighter per-channel load
    # shrinks the MVCC conflict window (hash placement spreads the hot keys).
    assert throughput[4] > throughput[1]
    assert mvcc[4] < mvcc[1]


def check_channels_cross_rate_aborts_grow(report):
    rates = report.column("cross_channel_rate")
    aborts = dict(zip(rates, report.column("cross_channel_abort_pct")))
    throughput = dict(zip(rates, report.column("committed_throughput_tps")))
    assert aborts[0.0] == 0.0
    assert aborts[max(rates)] > aborts[0.0]
    assert throughput[max(rates)] < throughput[0.0]


def check_retry_mitigation_lowers_client_effective_failures(report):
    raw = dict(zip(report.column("retry_policy"), report.column("raw_failure_pct")))
    effective = dict(
        zip(report.column("retry_policy"), report.column("client_effective_failure_pct"))
    )
    goodput = dict(zip(report.column("retry_policy"), report.column("goodput_tps")))
    # Without retries the two failure rates coincide: every attempt is a
    # logical request.
    assert effective["none"] == raw["none"]
    # With retries enabled, the failure rate a client experiences falls well
    # below the raw per-attempt rate the blockchain records...
    for policy in ("immediate", "fixed", "jittered"):
        assert effective[policy] < raw[policy]
        assert effective[policy] < effective["none"]
    # ...while jittered backoff keeps goodput within 10% of the no-retry
    # baseline (the acceptance bar of the lifecycle refactor).
    assert goodput["jittered"] >= 0.9 * goodput["none"]


def check_retry_storm_cap_bounds_amplification(report):
    caps = report.column("rate_cap")
    amplification = dict(zip(caps, report.column("retry_amplification")))
    denied = dict(zip(caps, report.column("rate_denied")))
    uncapped, tightest = caps[0], caps[-1]
    # The uncapped storm amplifies load; the tightest cap sheds resubmissions
    # (rate_denied > 0) and bounds the amplification factor.
    assert denied[uncapped] == 0
    assert denied[tightest] > 0
    assert amplification[tightest] < amplification[uncapped]


def check_fault_resilience(report):
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


def check_fault_retry(report):
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


#: The acceptance check of every experiment id.
CHECKS = {
    "table2": check_table02_chaincode_profiles,
    "table4": check_table04_database_types,
    "fig4": check_fig04_best_block_size,
    "fig5": check_fig05_minmax_failures,
    "fig6": check_fig06_latency_throughput,
    "fig7": check_fig07_mvcc_by_block_size,
    "fig8": check_fig08_mvcc_by_arrival_rate,
    "fig9": check_fig09_endorsement_by_block_size,
    "fig10": check_fig10_phantom_by_block_size,
    "fig11": check_fig11_database_effect,
    "fig12": check_fig12_organizations,
    "fig13": check_fig13_endorsement_policies,
    "fig14": check_fig14_workload_mix,
    "fig15": check_fig15_zipf_skew,
    "fig16": check_fig16_network_delay,
    "fig17": check_fig17_fabricpp_block_size,
    "fig18": check_fig18_fabricpp_chaincodes,
    "fig19": check_fig19_fabricpp_workloads,
    "fig20": check_fig20_streamchain_load,
    "fig21": check_fig21_streamchain_throughput,
    "fig22": check_fig22_streamchain_workloads,
    "fig23": check_fig23_streamchain_ramdisk,
    "fig24": check_fig24_fabricsharp_load,
    "fig25": check_fig25_fabricsharp_workloads,
    "fig26": check_fig26_system_comparison,
    "ablation-adaptive": check_ablation_adaptive_block_size,
    "ablation-readonly": check_ablation_readonly_filtering,
    "ablation-client-check": check_ablation_client_side_check,
    "channels-scaling": check_channels_scaling_throughput_and_aborts,
    "channels-cross": check_channels_cross_rate_aborts_grow,
    "retry-mitigation": check_retry_mitigation_lowers_client_effective_failures,
    "retry-storm": check_retry_storm_cap_bounds_amplification,
    "fault-resilience": check_fault_resilience,
    "fault-retry": check_fault_retry,
}


@pytest.mark.parametrize("experiment_id", list(CHECKS))
def test_experiment(benchmark, scale, experiment_id):
    axes = QUICK_AXES.get(experiment_id, {}) if scale.name == "quick" else {}
    CHECKS[experiment_id](run_figure(benchmark, experiment_id, scale, **axes))
