"""The shape of ``out/result.json`` (``perfbench-result/1``), checked by hand.

``problems(result)`` lists everything wrong with a result document; an empty
list means it is well formed and uses exactly the workload and end-to-end metric
names ``BENCHMARK.json`` declares.  ``compare`` runs it on both of its inputs,
and the self-test on every result the suite writes.
"""

from __future__ import annotations

import re
from typing import List

from perfbench import load_manifest

SCHEMA = "perfbench-result/1"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_ENV_KEYS = {"nproc", "python", "commit", "seed", "PYTHONHASHSEED", "argv", "date", "smoke"}
_STATS_KEYS = {"median", "q1", "q3", "min", "max", "n", "values"}
_BLOCK_KEYS = {"why", "sim_digest", "attempts", "inputs", "end_to_end", "per_layer", "layers",
               "failures", "raw"}


def problems(result: dict) -> List[str]:
    """Everything wrong with ``result``; empty when it is valid."""
    found: List[str] = []
    if result.get("schema") != SCHEMA:
        return [f"schema is {result.get('schema')!r}, expected {SCHEMA!r}"]
    if set(result.get("calibration", ())) != {"kernel_version", "ref_s", "slice_ref_s"}:
        found.append("calibration block must hold kernel_version, ref_s and slice_ref_s")
    missing = _ENV_KEYS - set(result.get("env", ()))
    if missing:
        found.append(f"env lacks {sorted(missing)}")

    manifest = load_manifest()
    declared = {entry["name"] for entry in manifest["workloads"]}
    end_to_end = {metric["name"]: metric for metric in manifest["end_to_end"]}
    for name, block in result.get("workloads", {}).items():
        if name not in declared:
            found.append(f"workload {name!r} is not in BENCHMARK.json")
        if set(block) != _BLOCK_KEYS:
            found.append(f"{name}: keys {sorted(set(block) ^ _BLOCK_KEYS)} missing or unexpected")
            continue
        if set(block["end_to_end"]) != set(end_to_end) | {"failed_share"}:
            found.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
        for metric, row in block["end_to_end"].items():
            where = f"{name}.{metric}"
            declared_row = end_to_end.get(metric)
            if declared_row and any(
                row.get(key) != declared_row[key] for key in ("unit", "better", "bound")
            ):
                found.append(f"{where}: unit, direction or bound differs from BENCHMARK.json")
            if row.get("status") == "SKIP":
                if not row.get("reason"):
                    found.append(f"{where}: SKIP without a reason")
            elif metric == "failed_share":
                if not 0 <= row.get("failed", -1) <= row.get("attempted", -1):
                    found.append(f"{where}: failed/attempted counts are inconsistent")
            elif not _STATS_KEYS <= set(row):
                found.append(f"{where}: lacks {sorted(_STATS_KEYS - set(row))}")
        for metric, row in block["per_layer"].items():
            if not NAME.match(metric):
                found.append(f"{name}: per-layer name {metric!r} is not a valid metric name")
            if not isinstance(row.get("value"), (int, float)) or "unit" not in row:
                found.append(f"{name}.{metric}: needs a numeric value and a unit")
    if not result.get("workloads"):
        found.append("no workloads")
    return found
