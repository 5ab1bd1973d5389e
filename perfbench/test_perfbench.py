"""Self-test of the benchmark, on the ``--smoke`` sizes (about a minute).

Not part of tier-1 (``pytest.ini``'s ``testpaths`` leaves this directory out);
run it from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import REPO_ROOT, compare, load_manifest, schema, suite
from perfbench.workloads import WORKLOADS, check_cell

from repro import run_repetition

MANIFEST = load_manifest()
WORKLOAD_NAMES = [entry["name"] for entry in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def result() -> dict:
    """One smoke pass over every workload, with one traced run each."""
    result = suite.run_suite(WORKLOAD_NAMES, 7, trials=1, setup_trials=1, trace_repeats=1,
                             smoke=True)
    suite.write_result(result)
    return result


def test_result_validates_against_the_schema(result):
    assert schema.problems(result) == []
    assert list(result["workloads"]) == WORKLOAD_NAMES
    written = json.loads((suite.OUT_DIR / "result.json").read_text(encoding="utf-8"))
    assert schema.problems(written) == []
    for key in ("nproc", "python", "commit", "seed", "PYTHONHASHSEED", "argv"):
        assert key in written["env"]


def test_names_are_the_manifests_and_well_formed(result):
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    declared_layers = {metric["name"] for metric in MANIFEST["per_layer"]}
    reported = set()
    for name, block in result["workloads"].items():
        assert schema.NAME.match(name)
        declared = {metric["name"] for metric in MANIFEST["end_to_end"]}
        assert set(block["end_to_end"]) == declared | {"failed_share"}
        assert all(schema.NAME.match(metric) for metric in block["per_layer"])
        reported |= set(block["per_layer"])
    assert all(schema.NAME.match(name) for name in declared_layers)
    # Every declared per-layer metric is produced by some workload.
    assert declared_layers <= reported


def test_layer_shares_cover_the_traced_wall(result):
    for name, block in result["workloads"].items():
        shares = {
            metric: row["value"] for metric, row in block["per_layer"].items()
            if metric.endswith(".self_share")
        }
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01), name
        assert shares["other.self_share"] < 0.05, name
        layers = json.loads((suite.OUT_DIR / f"{name}.layers.json").read_text(encoding="utf-8"))
        assert layers["attributed_s"] == pytest.approx(layers["traced_wall_s"][0], rel=0.01)
        assert {"caller", "callee", "count", "cumulative_s"} <= set(layers["edges"][0])


def test_each_workload_spends_its_time_where_it_was_chosen_to(result):
    def share(workload: str, *layers: str) -> float:
        rows = result["workloads"][workload]["per_layer"]
        return sum(rows.get(f"{layer}.self_share", {"value": 0.0})["value"] for layer in layers)

    assert share("scm-fpp", "chaincode", "ledger", "fabric") > 0.5
    if result["env"]["nproc"] > 1:
        assert share("ehr-8ch-sharded", "proc") > 0.5
    optional = suite.OPTIONAL_LAYERS
    assert share("chaos-audit", *optional) > 5 * share("ehr-paper", *optional)
    for name, block in result["workloads"].items():
        parent_cpu = block["per_layer"]["proc.parent_cpu_s"]["value"]
        if WORKLOADS[name].multi_process and result["env"]["nproc"] > 1:
            assert parent_cpu > 0, name
        else:
            assert parent_cpu == 0, name


def test_sharded_run_equals_the_shared_clock_run(result):
    blocks = result["workloads"]
    assert blocks["ehr-8ch-sharded"]["sim_digest"] == blocks["ehr-8ch"]["sim_digest"]
    for block in blocks.values():
        assert block["end_to_end"]["failed_share"]["median"] == 0, block["failures"]


def test_unbalanced_lifecycle_counts_fail_the_cell():
    config = WORKLOADS["ehr-paper"].build(7, 1.0, 1)
    analysis = run_repetition(config, 0)
    assert check_cell("ehr-paper", config, analysis).failure is None
    analysis.record.lifecycle_counts["committed"] += analysis.metrics.submitted_transactions
    assert "terminal events" in check_cell("ehr-paper", config, analysis).failure


def test_a_failing_cell_raises_failed_share_and_fails_the_comparison(result, monkeypatch):
    real_spawn = suite.spawn_trial

    def spawn_with_a_broken_cell(workload, seed, mode, smoke, repetition=0):
        record, wall = real_spawn(workload, seed, mode, smoke, repetition)
        if mode == "job":
            record["cells"][0]["failure"] = "injected"
        return record, wall

    monkeypatch.setattr(suite, "spawn_trial", spawn_with_a_broken_cell)
    broken = suite.run_suite(["scm-fpp"], 7, trials=1, setup_trials=1, smoke=True)
    row = broken["workloads"]["scm-fpp"]["end_to_end"]["failed_share"]
    assert (row["failed"], row["attempted"]) == (1, 1) and row["median"] == 1.0
    assert json.loads(suite.contract_line(broken, "scm-fpp", traced=False))["correct"] is False

    baseline = copy.deepcopy(result)
    baseline["workloads"] = {"scm-fpp": baseline["workloads"]["scm-fpp"]}
    lines, code = compare.compare(baseline, broken)
    assert code == 1
    assert any("failed_share" in line and "REGRESSED" in line for line in lines)


def test_disagreeing_digests_fail_the_cell(result):
    block = result["workloads"]["ehr-8ch-sharded"]
    cells = [{"name": "ehr-8ch-sharded", "failure": None}]
    job = dict(block["raw"]["jobs"][0], cells=cells)
    setups = [({"import_s": 0.1, "wall_s_raw": 0.1, "slowdown": 1.0}, 0.3)]

    def failures(jobs, twin_digests):
        folded = suite.fold_workload(MANIFEST, block["why"], jobs, setups, [],
                                     twin=("ehr-8ch", twin_digests))
        return folded["failures"]

    assert failures([job, dict(job, repetition=1, digest="1" * 64)], {0: job["digest"]}) == []
    assert "earlier trial" in failures([job, dict(job, digest="1" * 64)], {})[0]
    assert "differs from ehr-8ch" in failures([job], {0: "2" * 64})[0]


def test_every_run_repeats_its_first_input_and_compares_the_digests(monkeypatch):
    real_spawn = suite.spawn_trial
    job_digests = []

    def spawn_nondeterministic(workload, seed, mode, smoke, repetition=0):
        record, wall = real_spawn(workload, seed, mode, smoke, repetition)
        if mode == "job":
            job_digests.append(record["digest"])
            if nondeterministic and len(job_digests) == 2:
                record["digest"] = "1" * 64
        return record, wall

    monkeypatch.setattr(suite, "spawn_trial", spawn_nondeterministic)
    nondeterministic = False
    # The shortest time-bounded run still takes two trials, of the same input.
    short = suite.run_suite(["scm-fpp"], 7, seconds=0.01, setup_trials=1, smoke=True)
    block = short["workloads"]["scm-fpp"]
    assert block["inputs"] == [0] and block["end_to_end"]["wall_s"]["n"] == 2
    assert job_digests[0] == job_digests[1]
    assert block["end_to_end"]["failed_share"]["failed"] == 0

    # Four trials are three inputs; the sweep runs one input every time.
    del job_digests[:]
    longer = suite.run_suite(["scm-fpp", "sweep-grid"], 7, trials=4, setup_trials=1, smoke=True)
    scm, sweep = longer["workloads"]["scm-fpp"], longer["workloads"]["sweep-grid"]
    assert scm["inputs"] == [0, 1, 2] and scm["end_to_end"]["wall_s"]["n"] == 3
    assert sweep["inputs"] == [0] and sweep["end_to_end"]["wall_s"]["n"] == 4
    assert len(set(job_digests[0::2])) == 3 and len(set(job_digests[1::2])) == 1
    assert scm["end_to_end"]["failed_share"]["failed"] == 0
    assert sweep["end_to_end"]["failed_share"]["failed"] == 0

    del job_digests[:]
    nondeterministic = True
    short = suite.run_suite(["scm-fpp"], 7, seconds=0.01, setup_trials=1, smoke=True)
    row = short["workloads"]["scm-fpp"]["end_to_end"]["failed_share"]
    assert (row["failed"], row["attempted"]) == (1, 2)


def test_compare_verdicts(result):
    lines, code = compare.compare(result, result)
    assert code == 0 and not any("REGRESSED" in line or "DIGEST-CHANGED" in line for line in lines)

    slower = copy.deepcopy(result)
    row = slower["workloads"]["ehr-paper"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        row[key] *= 1.5
    slower["workloads"]["ehr-paper"]["sim_digest"] = "0" * 64
    lines, code = compare.compare(result, slower)
    assert code == 1
    assert any("ehr-paper" in line and "wall_s" in line and "REGRESSED" in line for line in lines)
    assert any("DIGEST-CHANGED" in line for line in lines)
    lines, code = compare.compare(slower, result)
    assert code == 0 and any("IMPROVED" in line for line in lines)

    noisy = copy.deepcopy(result["workloads"]["scm-fpp"]["end_to_end"]["wall_s"])
    noisy.update(q1=noisy["median"] * 0.8, q3=noisy["median"] * 1.2,
                 min=noisy["median"] * 0.7, max=noisy["median"] * 1.3)
    assert compare.verdict(noisy, dict(noisy, median=noisy["median"] * 1.12))[0] == "UNRESOLVED"

    # One value per input: inputs that cost very different amounts are not noise …
    spread_out = dict(noisy, values=[1.0, 2.0, 4.0], median=2.0)
    slower = dict(spread_out, values=[1.1, 2.2, 4.4], median=2.2)
    assert compare.verdict(spread_out, slower, per_input=True)[0] == "OK"
    slower = dict(spread_out, values=[1.5, 3.0, 6.0], median=3.0)
    assert compare.verdict(spread_out, slower, per_input=True)[0] == "REGRESSED"
    # … but pairs that disagree by more than the bound, some for A and some for B, are.
    erratic = dict(spread_out, values=[0.7, 2.6, 4.3], median=2.6)
    assert compare.verdict(spread_out, erratic, per_input=True)[0] == "UNRESOLVED"

    other_kernel = copy.deepcopy(result)
    other_kernel["calibration"]["kernel_version"] += 1
    assert compare.compare(result, other_kernel)[1] == 2


def test_compare_refuses_other_inputs_and_fails_a_missing_workload(result):
    for key, value in (("seed", 8), ("smoke", False)):
        other = copy.deepcopy(result)
        other["env"][key] = value
        lines, code = compare.compare(result, other)
        assert code == 2 and key in lines[0]

    more_trials = copy.deepcopy(result)
    more_trials["workloads"]["scm-fpp"]["inputs"] = [0, 1]
    lines, code = compare.compare(result, more_trials)
    assert code == 2 and "scm-fpp" in lines[0]

    fewer = copy.deepcopy(result)
    del fewer["workloads"]["sweep-grid"]
    lines, code = compare.compare(result, fewer)
    assert code == 1 and any("sweep-grid" in line and "missing from B" in line for line in lines)

    raised = copy.deepcopy(result)  # a job that raised submitted nothing: tx_per_s reads 0
    row = raised["workloads"]["scm-fpp"]["end_to_end"]["tx_per_s"]
    row.update({key: 0.0 for key in ("median", "q1", "q3", "min", "max")})
    assert compare.compare(raised, result)[1] == 0
    assert compare.compare(result, raised)[1] == 1


def test_single_core_rows_are_skipped_not_numbered(result):
    block = result["workloads"]["sweep-grid"]
    raw = block["raw"]
    jobs = [dict(record, cells=[{"name": "sweep-grid", "failure": None}]) for record in raw["jobs"]]
    setups = [({"import_s": 0.1, "wall_s_raw": 0.1, "slowdown": setup["slowdown"]},
               setup["process_wall_s"]) for setup in raw["setups"]]
    folded = suite.fold_workload(MANIFEST, block["why"], jobs, setups, [], skip_wall="single-core")
    for metric in ("wall_s", "tx_per_s"):
        row = folded["end_to_end"][metric]
        assert row["status"] == "SKIP" and row["reason"] == "single-core" and "median" not in row
    assert "median" in folded["end_to_end"]["cpu_s"]


def test_the_result_line_names_exactly_the_declared_metrics(result):
    for traced, declared in ((False, MANIFEST["end_to_end"]), (True, MANIFEST["per_layer"])):
        line = json.loads(suite.contract_line(result, "chaos-audit", traced=traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    end_to_end = json.loads(suite.contract_line(result, "chaos-audit", traced=False))["metrics"]
    assert all(row["value"] > 0 for row in end_to_end.values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "ehr-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert "correct" not in finished.stdout
