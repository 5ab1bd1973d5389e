"""``python3 -m perfbench compare A.json B.json`` — did B get worse than A?

One row per (workload, end-to-end metric): both medians, the ratio B/A with its
base, the bound from ``BENCHMARK.json`` and a verdict:

* ``REGRESSED``  — B's median is worse than A's by more than the bound;
* ``IMPROVED``   — better by more than the bound;
* ``UNRESOLVED`` — the run-to-run spread exceeds the bound and the runs
  overlap, so the medians cannot be told apart.  For a sample of trials the
  spread is its interquartile range over A's median (the wider side), and the
  runs overlap when the two ranges do.  A sample with one value per input has
  no repeats to tell run-to-run spread from what each input costs by itself,
  but both sides ran the same inputs in the same order: there the spread is the
  interquartile range of the ratios B/A input by input, and the runs overlap
  when those ratios lie on both sides of 1;
* ``OK``         — within the bound;
* ``SKIP``       — either side could not measure the row (single core).

A workload whose ``sim_digest`` moved is flagged ``DIGEST-CHANGED`` (reported,
not failed: a semantic fix must stay mergeable), and every ``calls`` count that
both sides mark ``exact`` but that differs is listed.  The exit code is 1 on any
``REGRESSED`` row, a higher ``failed_share`` or a workload of A that B lacks,
and 2 when an input is malformed or the two results cannot be compared: they
were normalised by different calibration kernels, or ran different inputs
(another seed, ``--smoke`` against full size, another number of job trials and
so of repetitions).
"""

from __future__ import annotations

import json
import statistics
from typing import List, Tuple

from perfbench import schema


def verdict(a: dict, b: dict, per_input: bool = False) -> Tuple[str, float]:
    """Verdict for one end-to-end row, and how much worse B is (as a share of A).

    ``per_input`` says that both samples hold one value per input, in the same order.
    """
    if a.get("status") == "SKIP" or b.get("status") == "SKIP":
        return "SKIP", 0.0
    base = a["median"]
    if "q1" not in a:  # failed_share: a share of a count, with no spread and often 0
        return ("REGRESSED" if b["median"] > base else "OK"), b["median"] - base
    if not base:  # A's job raised and measured nothing: B cannot be worse than that
        return ("IMPROVED" if b["median"] else "OK"), 0.0
    change = (b["median"] - base) / base
    worse = change if a["better"] == "lower" else -change
    bound = a["bound"]
    if per_input:
        ratios = [y / x for x, y in zip(a["values"], b["values"]) if x]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) >= 2 else (1.0, 1.0, 1.0)
        spread = q3 - q1
        overlap = min(ratios, default=1.0) <= 1.0 <= max(ratios, default=1.0)
    else:
        spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
        overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "UNRESOLVED", worse
    if worse > bound:
        return "REGRESSED", worse
    if worse < -bound:
        return "IMPROVED", worse
    return "OK", worse


def compare(a: dict, b: dict) -> Tuple[List[str], int]:
    """The comparison report, line by line, and the exit code."""
    if a["calibration"] != b["calibration"]:
        return [f"cannot compare: calibration {a['calibration']} against {b['calibration']}"], 2
    for key in ("seed", "smoke"):
        if a["env"][key] != b["env"][key]:
            return [f"cannot compare: different inputs, {key} {a['env'][key]} against"
                    f" {b['env'][key]}"], 2
    for name, block_a in a["workloads"].items():
        block_b = b["workloads"].get(name, block_a)
        if block_a["inputs"] != block_b["inputs"]:
            return [f"cannot compare: different inputs, {name} ran repetitions"
                    f" {block_a['inputs']} against {block_b['inputs']}"], 2
    lines = [
        f"A: commit {a['env']['commit'][:12]} nproc {a['env']['nproc']} {a['env']['date']}",
        f"B: commit {b['env']['commit'][:12]} nproc {b['env']['nproc']} {b['env']['date']}",
        f"{'workload':16s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>6s}  verdict",
    ]
    code = 0
    for name, block_a in a["workloads"].items():
        block_b = b["workloads"].get(name)
        if block_b is None:
            lines.append(f"{name:16s} missing from B")
            code = 1
            continue
        for metric, row_a in block_a["end_to_end"].items():
            row_b = block_b["end_to_end"][metric]
            per_input = len(block_a["inputs"]) > 1 and metric != "setup_s"
            outcome, _ = verdict(row_a, row_b, per_input)
            if outcome == "SKIP":
                reason = row_a.get("reason") or row_b.get("reason")
                lines.append(f"{name:16s} {metric:12s} {'':>41s}  SKIP ({reason})")
                continue
            ratio = row_b["median"] / row_a["median"] if row_a["median"] else float("nan")
            lines.append(
                f"{name:16s} {metric:12s} {row_a['median']:12.4f} {row_b['median']:12.4f}"
                f" {ratio:8.3f} {row_a['bound']:6.2f}  {outcome}"
                f"  (base A = {row_a['median']:.4f} {row_a['unit']})"
            )
            if outcome == "REGRESSED":
                code = 1
        if block_a["sim_digest"] != block_b["sim_digest"]:
            lines.append(f"{name:16s} DIGEST-CHANGED {block_a['sim_digest'][:16]}"
                         f" -> {block_b['sim_digest'][:16]}")
        for metric, row_a in block_a["per_layer"].items():
            row_b = block_b["per_layer"].get(metric, {})
            if row_a.get("exact") and row_b.get("exact") and row_a["value"] != row_b["value"]:
                lines.append(
                    f"{name:16s} {metric:32s} {row_a['value']:>12d} -> {row_b['value']:<12d}"
                    f" ({row_b['value'] - row_a['value']:+d} exact calls)"
                )
    return lines, code


def main(path_a: str, path_b: str) -> int:
    documents = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
        wrong = schema.problems(documents[-1])
        if wrong:
            print(f"{path} is not a perfbench result:\n  " + "\n  ".join(wrong))
            return 2
    lines, code = compare(*documents)
    print("\n".join(lines))
    return code
