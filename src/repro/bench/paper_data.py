"""Reference numbers reported in the paper.

Only a few artefacts of the paper come with exact numbers in the text or
tables; those are recorded here verbatim so the benchmarks and EXPERIMENTS.md
can show paper-vs-measured side by side.  For the remaining figures the paper
only provides plots; the qualitative result each of them must show is the
``expected_trend`` of its entry in :data:`repro.bench.experiments.EXPERIMENTS`,
and ``benchmarks/bench_experiments.py`` asserts it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Table 4 — average transaction latency (seconds) per genChain workload.
TABLE4_LATENCY_S: Dict[str, Dict[str, float]] = {
    "ReadHeavy": {"couchdb": 18.04, "leveldb": 3.22},
    "InsertHeavy": {"couchdb": 18.34, "leveldb": 7.93},
    "UpdateHeavy": {"couchdb": 20.82, "leveldb": 9.86},
    "RangeHeavy": {"couchdb": 101.63, "leveldb": 4.14},
    "DeleteHeavy": {"couchdb": 18.48, "leveldb": 1.22},
}

#: Table 4 — transaction failures (percent) per genChain workload.
TABLE4_FAILURES_PCT: Dict[str, Dict[str, float]] = {
    "ReadHeavy": {"couchdb": 5.65, "leveldb": 1.38},
    "InsertHeavy": {"couchdb": 2.17, "leveldb": 1.36},
    "UpdateHeavy": {"couchdb": 31.31, "leveldb": 23.03},
    "RangeHeavy": {"couchdb": 34.18, "leveldb": 5.19},
    "DeleteHeavy": {"couchdb": 1.11, "leveldb": 0.18},
}

#: Table 4 — per-call latency (milliseconds) of the state-database operations.
TABLE4_FUNCTION_CALL_LATENCY_MS: Dict[str, Dict[str, float]] = {
    "GetState": {"couchdb": 8.3, "leveldb": 0.6},
    "PutState": {"couchdb": 0.8, "leveldb": 0.5},
    "GetRange": {"couchdb": 88.0, "leveldb": 1.4},
    "DeleteState": {"couchdb": 1.2, "leveldb": 0.6},
}

#: Section 5.1.1 — the DRM chaincode at 50 tps: failures at the worst vs the
#: best block size ("21.14% failures with the worst block size while we
#: observed only 8.07% failures with the best block size").
DRM_50TPS_WORST_BEST_FAILURES_PCT: Tuple[float, float] = (21.14, 8.07)

#: Abstract / Section 1 — the block size can reduce failures by up to 60 %.
MAX_BLOCK_SIZE_IMPROVEMENT_PCT: float = 60.0

#: Section 1 — more than 40 % of transactions failed for the EHR use case.
EHR_OBSERVED_FAILURE_PCT: float = 40.0

#: Figure 25 (numbers printed in the figure) — Fabric 1.4 vs FabricSharp
#: failure percentages per workload.
FIG25_WORKLOAD_FAILURES_PCT: Dict[str, Dict[str, float]] = {
    "RH": {"fabric-1.4": 1.38, "fabricsharp": 1.25},
    "IH": {"fabric-1.4": 1.36, "fabricsharp": 7.67},
    "UH": {"fabric-1.4": 23.03, "fabricsharp": 2.34},
    "DH": {"fabric-1.4": 0.18, "fabricsharp": 5.66},
}

#: Figure 25 (numbers printed in the figure) — failures vs Zipfian skew.
FIG25_SKEW_FAILURES_PCT: Dict[float, Dict[str, float]] = {
    0.0: {"fabric-1.4": 29.6, "fabricsharp": 3.24},
    1.0: {"fabric-1.4": 67.54, "fabricsharp": 2.87},
    2.0: {"fabric-1.4": 94.32, "fabricsharp": 4.63},
}

#: Figure 4 (read from the plots) — approximate best block size per arrival
#: rate for the EHR chaincode on the C2 cluster.
FIG4_EHR_C2_BEST_BLOCK_SIZE: Dict[int, int] = {10: 10, 50: 25, 100: 50, 150: 100, 200: 200}
