"""Run trials of the workloads and fold them into one result document.

The driver process never runs a simulation itself: it starts one fresh
``perfbench.trial`` process per trial, one at a time (a closed loop of one job),
round-robin across the workloads so that machine drift spreads over all of
them.  Per workload it takes

* *job* trials — the end-to-end metrics, normalised by the calibration kernel.
  The first two run the same input, repetition 0 of the cell the seed names, and
  must produce the same digest; each later one runs the next repetition
  (``run_repetition(config, i)``), so that the median over the inputs averages
  out the seed's luck as well as the machine's.  A workload that is ``one_input``
  runs the same input in every trial, and all of them must agree;
* *set-up* trials — the job with its simulated duration clipped to 1 ms, the
  whole process timed from here (interpreter start, imports, build);
* with tracing on, *traced* trials of repetition 0 — the per-layer metrics, and
  two more digests that must agree.  End-to-end metrics never come from a
  traced trial.

Every number is host time.  Simulated statistics are outputs to be checked —
see ``workloads.check_cell`` — and a wrong output is a failed operation.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import OUT_DIR, REPO_ROOT, SRC_DIR, calibrate, load_manifest
from perfbench.schema import SCHEMA

#: Layers that only a workload which turns them on should spend time in.
OPTIONAL_LAYERS = ("faults", "checker", "observability", "lifecycle")

#: Units of the three per-layer columns, for layers ``BENCHMARK.json`` does not name yet.
LAYER_UNITS = {"self_s": "s", "self_share": "ratio", "calls": "count"}

_TRIAL_TIMEOUT_S = 170


# ------------------------------------------------------------------- processes
def spawn_trial(workload: str, seed: int, mode: str, smoke: bool,
                repetition: int = 0) -> Tuple[dict, float]:
    """Run one trial process; its record and the wall time of the whole process."""
    command = [sys.executable, "-m", "perfbench.trial", "--workload", workload,
               "--seed", str(seed), "--repetition", str(repetition), "--mode", mode]
    if smoke:
        command.append("--smoke")
    inherited = os.environ.get("PYTHONPATH")
    search_path = [str(REPO_ROOT), str(SRC_DIR)] + ([inherited] if inherited else [])
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(search_path))
    started = time.perf_counter()
    # A session of its own, so that a trial that hangs, or whose driver is
    # interrupted, can be stopped together with the worker processes it started.
    with subprocess.Popen(command, cwd=REPO_ROOT, env=environment, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as process:
        try:
            output, _ = process.communicate(timeout=_TRIAL_TIMEOUT_S)
        except BaseException:  # timed out or interrupted: leave nothing running
            os.killpg(process.pid, signal.SIGKILL)
            raise
    wall = time.perf_counter() - started
    if process.returncode != 0:
        raise RuntimeError(f"trial {workload}/{mode} exited with code {process.returncode}")
    return json.loads(output.strip().splitlines()[-1]), wall


# ------------------------------------------------------------------ statistics
def summarise(values: Sequence[float]) -> dict:
    """Median, quartiles and range of one metric's sample (see :func:`per_input`)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "values": list(values),
    }


def per_input(jobs: Sequence[dict], values: Sequence[float]) -> List[float]:
    """One value per input: the median over the job trials that ran it.

    When every trial ran the same input, the trials themselves are the sample.
    """
    by_input: Dict[int, List[float]] = {}
    for record, value in zip(jobs, values):
        by_input.setdefault(record["repetition"], []).append(value)
    if len(by_input) == 1:
        return list(values)
    return [statistics.median(group) for group in by_input.values()]


def environment(seed: int, smoke: bool) -> dict:
    """Where and how the result was taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "PYTHONHASHSEED": "0",
        "argv": sys.argv,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "smoke": smoke,
    }


# ----------------------------------------------------------------------- suite
def run_suite(
    names: Sequence[str],
    seed: int,
    *,
    trials: int = 5,
    seconds: Optional[float] = None,
    setup_trials: int = 9,
    trace_repeats: int = 0,
    smoke: bool = False,
) -> dict:
    """Run the named workloads and return the result document.

    ``seconds`` replaces the fixed trial count: rounds of job trials keep
    starting until the time measured is as close to it as whole rounds get (at
    least two rounds: the first trial alone has nothing to agree with).
    """
    from perfbench.workloads import WORKLOADS  # imported late: needs ``src/`` to exist

    manifest = load_manifest()
    whys = {entry["name"]: entry["why"] for entry in manifest["workloads"]}
    jobs: Dict[str, List[dict]] = {name: [] for name in names}

    started = time.perf_counter()
    rounds, elapsed = 0, 0.0
    while rounds < (trials if seconds is None else 2) or (
        # Stop when another round would end half a round past ``seconds`` or later.
        seconds is not None and elapsed + elapsed / rounds / 2 <= seconds
    ):
        for name in names:
            repetition = 0 if WORKLOADS[name].one_input else max(0, rounds - 1)
            jobs[name].append(spawn_trial(name, seed, "job", smoke, repetition)[0])
        rounds += 1
        elapsed = time.perf_counter() - started

    # The digests a twin workload must reproduce, by repetition.  A twin outside
    # the selection is run once, untimed, for repetition 0.
    twin_digests: Dict[str, Dict[int, str]] = {}
    for name in names:
        twin = WORKLOADS[name].twin
        if twin in jobs:
            twin_digests[twin] = {record["repetition"]: record["digest"] for record in jobs[twin]}
        elif twin is not None:
            twin_digests[twin] = {0: spawn_trial(twin, seed, "check", smoke)[0]["digest"]}

    # Set-up trials are too short to sample from inside: a kernel reading goes
    # between each two of them, and each is normalised by the readings around it.
    setups: Dict[str, List[Tuple[dict, float]]] = {name: [] for name in names}
    in_order: List[dict] = []
    readings = [calibrate.measure()]
    for _ in range(setup_trials):
        for name in names:
            setups[name].append(spawn_trial(name, seed, "setup", smoke))
            in_order.append(setups[name][-1][0])
            readings.append(calibrate.measure())
    for index, record in enumerate(in_order):
        # The trial ran between readings ``index`` and ``index + 1``; the median
        # of those and the next one out on either side shrugs off a reading that
        # a burst hit.
        near = readings[max(0, index - 1):index + 3]
        record["slowdown"] = statistics.median(near) / calibrate.REF_S

    traces: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(trace_repeats):
        for name in names:
            traces[name].append(spawn_trial(name, seed, "trace", smoke)[0])

    single_core = (os.cpu_count() or 1) == 1
    workloads = {}
    for name in names:
        spec = WORKLOADS[name]
        workloads[name] = fold_workload(
            manifest, whys[name], jobs[name], setups[name], traces[name],
            twin=(spec.twin, twin_digests.get(spec.twin, {})),
            skip_wall="single-core" if single_core and spec.multi_process else None,
        )
    return {
        "schema": SCHEMA,
        "calibration": {"kernel_version": calibrate.KERNEL_VERSION, "ref_s": calibrate.REF_S,
                        "slice_ref_s": calibrate.SLICE_REF_S},
        "env": environment(seed, smoke),
        "workloads": workloads,
    }


def fold_workload(
    manifest: dict,
    why: str,
    jobs: List[dict],
    setups: List[Tuple[dict, float]],
    traces: List[dict],
    *,
    twin: Tuple[Optional[str], Dict[int, str]] = (None, {}),
    skip_wall: Optional[str] = None,
) -> dict:
    """Fold one workload's trial records into its block of the result."""
    twin_name, twin_digests = twin
    digests: Dict[int, str] = {}
    attempted = failed = 0
    failures: List[str] = []
    for index, record in enumerate(jobs + traces):
        repetition = record["repetition"]
        expected = digests.setdefault(repetition, record["digest"])
        verdicts = [cell["failure"] for cell in record["cells"]]
        if record["digest"] != expected:
            verdicts = [v or "digest differs from an earlier trial of the same input"
                        for v in verdicts]
        elif twin_digests.get(repetition, expected) != expected:
            verdicts = [v or f"digest differs from {twin_name}" for v in verdicts]
        attempted += len(verdicts)
        failed += sum(v is not None for v in verdicts)
        failures += [f"{record['mode']} trial {index}: {cell['name']}: {v}"
                     for cell, v in zip(record["cells"], verdicts) if v is not None]

    wall = [record["wall_s_raw"] / record["slowdown"] for record in jobs]
    values = {
        "wall_s": wall,
        "tx_per_s": [record["attempts"] / seconds for record, seconds in zip(jobs, wall)],
        "cpu_s": [record["cpu_s_raw"] / record["slowdown"] for record in jobs],
        "peak_rss_mb": [record["peak_rss_mb"] for record in jobs],
    }
    values = {name: per_input(jobs, column) for name, column in values.items()}
    values["setup_s"] = [seconds / record["slowdown"] for record, seconds in setups]
    end_to_end = {}
    for metric in manifest["end_to_end"]:
        row = {key: metric[key] for key in ("unit", "better", "bound")}
        stats = summarise(values[metric["name"]])
        if skip_wall is not None and metric["name"] in ("wall_s", "tx_per_s"):
            row.update(status="SKIP", reason=skip_wall, observed=stats)
        else:
            row.update(stats)
        end_to_end[metric["name"]] = row
    end_to_end["failed_share"] = {
        "unit": "ratio", "better": "lower", "bound": 0.0, "median": failed / attempted,
        "attempted": attempted, "failed": failed,
    }

    median = statistics.median
    parallel = jobs[0]["workers"] > 1 and max(record["children_cpu_s"] for record in jobs) > 0
    cells_per_pass = len(jobs[0]["cells"]) // 2 or 1
    cold = [record["timed"].get("cold", 0.0) / record["slowdown"] for record in jobs]
    warm = [record["timed"].get("warm", 0.0) / record["slowdown"] for record in jobs]
    per_layer = {
        # A process is a *parent* only when it had workers: alone it is the job.
        "proc.parent_cpu_s": (
            median(r["parent_cpu_s"] / r["slowdown"] for r in jobs) if parallel else 0.0
        ),
        "proc.children_cpu_s": median(r["children_cpu_s"] / r["slowdown"] for r in jobs),
        "proc.worker_peak_rss_mb": median(r["worker_peak_rss_mb"] for r in jobs),
        "bench.runner.cold_wall_s": median(cold),
        "bench.runner.warm_wall_s": median(warm),
        "bench.cache.mb_per_cell": jobs[0]["cache_mb_per_cell"],
        "bench.cache.hit_ms_per_cell": median(warm) * 1000.0 / cells_per_pass,
        "setup.import_s": median(r["import_s"] / r["slowdown"] for r, _ in setups),
        "setup.build_s": median(r["wall_s_raw"] / r["slowdown"] for r, _ in setups),
        "host_us_per_tx": median(s / max(1, r["attempts"]) for r, s in zip(jobs, wall)) * 1e6,
    }
    per_layer = {name: {"value": value} for name, value in per_layer.items()}
    layers = None
    if traces:
        untraced = [r["wall_s_raw"] for r in jobs if r["repetition"] == traces[0]["repetition"]]
        layers = fold_traces(traces, median(untraced))
        per_layer.update(layers.pop("metrics"))
    units = {metric["name"]: metric["unit"] for metric in manifest["per_layer"]}
    for name, row in per_layer.items():
        row["unit"] = units.get(name) or LAYER_UNITS[name.rsplit(".", 1)[-1]]

    return {
        "why": why,
        "sim_digest": jobs[0]["digest"],
        "attempts": jobs[0]["attempts"],
        "inputs": sorted({record["repetition"] for record in jobs}),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layers": layers,
        "failures": failures,
        "raw": {
            "jobs": [{key: value for key, value in record.items() if key != "cells"}
                     for record in jobs],
            "setups": [{"process_wall_s": seconds, "slowdown": record["slowdown"]}
                       for record, seconds in setups],
        },
    }


def fold_traces(traces: List[dict], untraced_wall: float) -> dict:
    """Per-layer metrics from the traced trials; the first one gives the times.

    A ``calls`` count is ``exact`` only if two traced runs agree to the integer.
    """
    first = traces[0]["layers"]
    others = [trace["layers"]["layers"] for trace in traces[1:]]
    metrics = {}
    for layer, row in first["layers"].items():
        metrics[f"{layer}.self_s"] = {"value": row["self_s"]}
        metrics[f"{layer}.self_share"] = {"value": row["self_share"]}
        calls = {"value": row["calls"]}
        if others:
            calls["exact"] = all(
                other.get(layer, {}).get("calls") == row["calls"] for other in others
            )
        metrics[f"{layer}.calls"] = calls
    metrics["optional_layers_share"] = {
        "value": sum(first["layers"].get(layer, {}).get("self_share", 0.0)
                     for layer in OPTIONAL_LAYERS)
    }
    metrics["trace_overhead_x"] = {"value": first["traced_wall_s"] / untraced_wall}
    return {
        "metrics": metrics,
        "traced_wall_s": [trace["layers"]["traced_wall_s"] for trace in traces],
        "attributed_s": first["attributed_s"],
        "calls_total": [trace["layers"]["calls_total"] for trace in traces],
        "edges": first["edges"],
    }


# ---------------------------------------------------------------------- output
def write_result(result: dict) -> None:
    """``out/result.json`` plus one ``out/<workload>.layers.json`` per traced workload."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, block in result["workloads"].items():
        if block["layers"] is not None:
            layers = {
                "workload": name,
                "env": result["env"],
                **block["layers"],
                "layers": {
                    metric: row for metric, row in block["per_layer"].items()
                    if metric.rsplit(".", 1)[-1] in LAYER_UNITS
                },
            }
            _dump(OUT_DIR / f"{name}.layers.json", layers)
    _dump(OUT_DIR / "result.json", result)


def _dump(path, document: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def format_result(result: dict, per_layer: bool) -> str:
    """Every metric of every workload by name, with its unit."""
    env = result["env"]
    lines = [
        f"perfbench  commit {env['commit'][:12]}  nproc {env['nproc']}  python {env['python']}"
        f"  seed {env['seed']}  kernel v{result['calibration']['kernel_version']}"
        + ("  SMOKE" if env["smoke"] else ""),
        f"{'workload':16s} {'metric':14s} {'median':>12s} {'unit':5s} {'q1':>12s} {'q3':>12s}"
        f" {'n':>3s}",
    ]
    for name, block in result["workloads"].items():
        for metric, row in block["end_to_end"].items():
            if row.get("status") == "SKIP":
                lines.append(
                    f"{name:16s} {metric:14s} {'SKIP':>12s} {row['unit']:5s} ({row['reason']})"
                )
            elif "q1" in row:
                lines.append(
                    f"{name:16s} {metric:14s} {row['median']:12.4f} {row['unit']:5s}"
                    f" {row['q1']:12.4f} {row['q3']:12.4f} {row['n']:3d}"
                )
            else:
                lines.append(
                    f"{name:16s} {metric:14s} {row['median']:12.4f} {row['unit']:5s}"
                    f" ({row['failed']} of {row['attempted']} cells failed)"
                )
        lines.append(f"{name:16s} {'sim_digest':14s} {block['sim_digest'][:16]}")
        lines += [f"{name:16s} FAILED {failure}" for failure in block["failures"]]
        if per_layer:
            lines += _format_per_layer(name, block["per_layer"])
    return "\n".join(lines)


def _format_per_layer(name: str, per_layer: dict) -> List[str]:
    """The metrics measured from outside, then one row per layer, largest first."""
    layers: Dict[str, dict] = {}
    lines = []
    for metric, row in per_layer.items():
        layer, _, column = metric.rpartition(".")
        if column in LAYER_UNITS:
            layers.setdefault(layer, {})[column] = row
        elif row["value"]:
            lines.append(f"{name:16s}   {metric:30s} {row['value']:12.6g} {row['unit']}")
    if layers:
        lines.append(f"{name:16s}   {'<layer>':24s} {'.self_s [s]':>12s} {'.self_share':>12s}"
                     f" {'.calls':>12s}")
    for layer, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]["value"]):
        exact = {True: "exact", False: "INEXACT"}.get(row["calls"].get("exact"), "")
        lines.append(
            f"{name:16s}   {layer:24s} {row['self_s']['value']:12.4f}"
            f" {row['self_share']['value']:12.4f} {row['calls']['value']:12d} {exact}"
        )
    return lines


def contract_line(result: dict, workload: str, traced: bool) -> str:
    """The one-line JSON object the benchmark driver reads."""
    manifest = load_manifest()
    block = result["workloads"][workload]
    if traced:
        metrics = {
            metric["name"]: {
                "value": block["per_layer"].get(metric["name"], {}).get("value", 0.0),
                "unit": metric["unit"],
            }
            for metric in manifest["per_layer"]
        }
    else:
        metrics = {}
        for metric in manifest["end_to_end"]:
            row = block["end_to_end"][metric["name"]]
            metrics[metric["name"]] = {
                "value": row.get("observed", row)["median"], "unit": metric["unit"],
            }
    cells = block["end_to_end"]["failed_share"]
    return json.dumps({
        "correct": cells["failed"] == 0,
        "attempted": cells["attempted"],
        "failed": cells["failed"],
        "metrics": metrics,
    })
