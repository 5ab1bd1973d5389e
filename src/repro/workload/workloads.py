"""Canonical workloads of the paper.

Two families are provided:

* **Use-case workloads** — a uniform mix over the invocable functions of the
  EHR, DV, SCM and DRM chaincodes (the paper's default "Uniform" workload of
  Table 3).
* **Synthetic workloads on genChain** — the read-heavy (RH), insert-heavy (IH),
  update-heavy (UH), delete-heavy (DH) and range-heavy (RaH) workloads of
  Section 4.4: 80 % of the "x" transaction type and a uniform distribution of
  the four other types; plus the uniform read/update workload used for the
  Zipfian-skew experiments.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import WorkloadError
from repro.workload.spec import TransactionMix, WorkloadSpec

#: genChain function names by transaction type.
_GENCHAIN_FUNCTIONS = {
    "read": "readKey",
    "insert": "insertKey",
    "update": "updateKey",
    "delete": "deleteKey",
    "range": "rangeRead",
}


#: Share of the heavy transaction type in a synthetic workload (Section 4.4).
HEAVY_SHARE = 0.8


def _heavy_mix(heavy: str, include_range: bool = True) -> TransactionMix:
    """:data:`HEAVY_SHARE` of the heavy type, the rest split uniformly over the other types.

    ``include_range=False`` drops range reads from the minority share; this is
    needed to run the synthetic workloads on FabricSharp, which does not
    support range queries (paper Section 5.4.3).
    """
    if heavy not in _GENCHAIN_FUNCTIONS:
        raise WorkloadError(f"unknown genChain transaction type {heavy!r}")
    others = [
        name
        for key, name in _GENCHAIN_FUNCTIONS.items()
        if key != heavy and (include_range or key != "range")
    ]
    weights: Dict[str, float] = {_GENCHAIN_FUNCTIONS[heavy]: HEAVY_SHARE}
    for name in others:
        weights[name] = (1.0 - HEAVY_SHARE) / len(others)
    return TransactionMix.from_dict(weights)


def _genchain_spec(name: str, mix: TransactionMix, description: str, **chaincode_kwargs) -> WorkloadSpec:
    kwargs = {"num_keys": 100_000}
    kwargs.update(chaincode_kwargs)
    return WorkloadSpec(
        name=name,
        chaincode="genChain",
        mix=mix,
        chaincode_kwargs=kwargs,
        description=description,
    )


def read_heavy(include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """RH: 80 % reads (Section 4.4)."""
    mix = _heavy_mix("read", include_range=include_range)
    return _genchain_spec("ReadHeavy", mix, "80% read transactions", **chaincode_kwargs)


def insert_heavy(include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """IH: 80 % inserts of unique keys — essentially conflict-free."""
    mix = _heavy_mix("insert", include_range=include_range)
    return _genchain_spec("InsertHeavy", mix, "80% insert transactions", **chaincode_kwargs)


def update_heavy(include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """UH: 80 % read-modify-write updates — the most conflict-prone workload."""
    mix = _heavy_mix("update", include_range=include_range)
    return _genchain_spec("UpdateHeavy", mix, "80% update transactions", **chaincode_kwargs)


def delete_heavy(include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """DH: 80 % deletes of unique keys — essentially conflict-free."""
    mix = _heavy_mix("delete", include_range=include_range)
    return _genchain_spec("DeleteHeavy", mix, "80% delete transactions", **chaincode_kwargs)


def range_heavy(include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """RaH: 80 % range reads of 2, 4 or 8 keys."""
    return _genchain_spec(
        "RangeHeavy", _heavy_mix("range"), "80% range-read transactions", **chaincode_kwargs
    )


def read_update_uniform(**chaincode_kwargs) -> WorkloadSpec:
    """The uniform read/update workload used for the Zipfian-skew experiments.

    The paper generates "a uniform workload of read and update transactions
    with 3 different key distributions (Zipfian skew: 0, 1, 2)"; the accessed
    key pool is restricted so that even the skew-0 case observes conflicts.
    """
    kwargs = {"active_keys": 2_000}
    kwargs.update(chaincode_kwargs)
    mix = TransactionMix.from_dict({"readKey": 0.5, "updateKey": 0.5})
    return _genchain_spec("ReadUpdateUniform", mix, "50% read / 50% update", **kwargs)


#: The five synthetic workloads keyed by the abbreviations used in the figures.
SYNTHETIC_WORKLOADS = {
    "RH": read_heavy,
    "IH": insert_heavy,
    "UH": update_heavy,
    "RaH": range_heavy,
    "DH": delete_heavy,
}


def synthetic_workload(abbreviation: str, include_range: bool = True, **chaincode_kwargs) -> WorkloadSpec:
    """Look up a synthetic workload by its figure abbreviation (RH/IH/UH/RaH/DH)."""
    try:
        factory = SYNTHETIC_WORKLOADS[abbreviation]
    except KeyError as exc:
        known = ", ".join(sorted(SYNTHETIC_WORKLOADS))
        raise WorkloadError(
            f"unknown synthetic workload {abbreviation!r}; known workloads: {known}"
        ) from exc
    return factory(include_range=include_range, **chaincode_kwargs)


#: Function mixes for the use-case chaincodes' default ("Uniform") workload.
_USE_CASE_FUNCTIONS = {
    "EHR": [
        "addEhr",
        "grantProfileAccess",
        "readProfile",
        "revokeProfileAccess",
        "viewPartialProfile",
        "revokeEhrAccess",
        "viewEHR",
        "grantEhrAccess",
        "queryEHR",
    ],
    "DV": ["vote", "qryParties", "seeResults"],
    "SCM": ["pushASN", "Ship", "Unload", "queryASN", "queryStock"],
    "DRM": ["create", "play", "queryRghts", "viewMetaData", "calcRevenue"],
}

#: The chaincodes :func:`uniform_workload` builds a workload over: every registered
#: one but ``generated``, which has no functions until a specification gives it some.
UNIFORM_CHAINCODES = tuple(sorted([*_USE_CASE_FUNCTIONS, "genChain"]))


def uniform_workload(chaincode: str, **chaincode_kwargs) -> WorkloadSpec:
    """The default uniform workload over a use-case chaincode's functions.

    ``closeElctn`` (DV) and ``initLedger`` are excluded from the mixes because
    they are one-shot administrative operations, matching the paper's setup
    where the world state is populated before the benchmark starts.
    """
    if chaincode == "genChain":
        mix = TransactionMix.uniform(list(_GENCHAIN_FUNCTIONS.values()))
        return _genchain_spec("genChain-uniform", mix, "uniform over genChain functions", **chaincode_kwargs)
    if chaincode not in _USE_CASE_FUNCTIONS:
        known = ", ".join(UNIFORM_CHAINCODES)
        raise WorkloadError(f"unknown chaincode {chaincode!r}; known chaincodes: {known}")
    mix = TransactionMix.uniform(_USE_CASE_FUNCTIONS[chaincode])
    return WorkloadSpec(
        name=f"{chaincode}-uniform",
        chaincode=chaincode,
        mix=mix,
        chaincode_kwargs=dict(chaincode_kwargs),
        description=f"uniform mix over the {chaincode} chaincode functions",
    )
