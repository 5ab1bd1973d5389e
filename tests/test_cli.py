"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro import cli
from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import ExperimentRunner
from repro.checker.config import CheckerConfig
from repro.cli import build_parser, main
from repro.sim.shard import available_cores


# --------------------------------------------------------------------- surface
# Each action of a verb's parser: option strings, dest, metavar, choices,
# nargs and help -- what ``--help`` renders, independent of how a Python
# version lays it out.
EXPERIMENT_SURFACE = [
    (("-h", "--help"), "help", None, None, 0, "show this help message and exit"),
    (("--variant",), "variant", None, None, None, None),
    (("--chaincode",), "chaincode", None, None, None, None),
    (("--cluster",), "cluster", None, None, None, None),
    (("--database",), "database", None, ["couchdb", "leveldb"], None, None),
    (("--block-size",), "block_size", None, None, None, None),
    (("--policy",), "policy", None, ["P0", "P1", "P2", "P3"], None, None),
    (("--rate",), "rate", None, None, None, "arrival rate in tps"),
    (("--duration",), "duration", None, None, None, "simulated seconds"),
    (("--skew",), "skew", None, None, None, "Zipfian key skew"),
    (("--repetitions",), "repetitions", None, None, None, None),
    (("--seed",), "seed", None, None, None, None),
    (("--channels",), "channels", None, None, None, "shard the network into this many channels"),
    (
        ("--placement",), "placement", None, None, None,
        "key placement across channels: hash, range or hot",
    ),
    (
        ("--cross-channel-rate",), "cross_channel_rate", None, None, None,
        "fraction of transactions spanning a second channel (needs --channels >= 2)",
    ),
    (
        ("--shard-workers",), "shard_workers", None, None, None,
        "processes that simulate independent channel shards: 1 (default) drains every shard "
        "in this process, N >= 2 a pool of at most N workers while this process waits, 0 every "
        "available core (needs --channels >= 2; bit-identical results either way)",
    ),
    (
        ("--retry-policy",), "retry_policy", None, None, None,
        "client reaction to failed transactions: none, immediate, fixed or jittered",
    ),
    (
        ("--max-retries",), "max_retries", None, None, None,
        "resubmission attempts per failed transaction (with --retry-policy)",
    ),
    (
        ("--retry-backoff",), "retry_backoff", None, None, None,
        "base backoff delay in seconds for the fixed and jittered policies",
    ),
    (
        ("--retry-max-backoff",), "retry_max_backoff", None, None, None,
        "upper bound in seconds on any single backoff delay",
    ),
    (
        ("--retry-rate-cap",), "retry_rate_cap", None, None, None,
        "deployment-wide resubmission rate cap in 1/s (default: uncapped)",
    ),
    (
        ("--fault-spec",), "fault_spec", "SPEC", None, None,
        "chaos profile as JSON or inline DSL, e.g. "
        "'peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3' (kinds: "
        "peer-crash, endorser-slowdown, orderer-outage, partition, endorsement-loss, "
        "endorsement-timeout)",
    ),
    (
        ("--json",), "json", None, None, 0,
        "print one machine-readable JSON document instead of text tables",
    ),
]
OBSERVER_SURFACE = [
    (
        ("--trace-out",), "trace_out", "FILE", None, None,
        "write a Chrome trace-event JSON (Perfetto-loadable) of the run",
    ),
    (
        ("--metrics-out",), "metrics_out", "FILE", None, None,
        "write the metrics registry summary and sampled sim-time series as JSON",
    ),
    (
        ("--sample-interval",), "sample_interval", None, None, None,
        "sim-time sampling interval in seconds for --metrics-out (default 0.25)",
    ),
    (
        ("--check-isolation",), "check_isolation", None, None, 0,
        "certify every channel's committed history online (serializability and snapshot "
        "isolation, with anomaly witnesses on refutation)",
    ),
]
VERB_SURFACES = {
    "run": EXPERIMENT_SURFACE + OBSERVER_SURFACE + [
        (
            ("--history-out",), "history_out", "FILE", None, None,
            "write the committed history as JSON for 'repro check' (implies --check-isolation)",
        ),
    ],
    "compare": EXPERIMENT_SURFACE + [
        (("--variants",), "variants", None, None, "+", "variants to compare"),
    ],
    "sweep": EXPERIMENT_SURFACE + OBSERVER_SURFACE + [
        (
            ("--variants",), "variants", None, None, "*",
            "sweep over these Fabric variants (default: just --variant)",
        ),
        (
            ("--block-sizes",), "block_sizes", None, None, "*",
            "sweep over these block sizes (default: just --block-size)",
        ),
        (
            ("--rates",), "rates", None, None, "*",
            "sweep over these arrival rates in tps (default: just --rate)",
        ),
        (
            ("--skews",), "skews", None, None, "*",
            "sweep over these Zipfian skews (default: just --skew)",
        ),
        (
            ("--workers",), "workers", None, None, None,
            "worker processes for the grid (default %(default)s)",
        ),
        (("--no-cache",), "no_cache", None, None, 0, "disable the result cache"),
        (
            ("--cache-dir",), "cache_dir", None, None, None,
            "persist cached results in this directory (reused by later sweeps)",
        ),
    ],
}


@pytest.mark.parametrize("verb", sorted(VERB_SURFACES))
def test_each_verb_keeps_its_flags(verb):
    verbs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = [
        (tuple(action.option_strings), action.dest, action.metavar, action.choices,
         action.nargs, action.help)
        for action in verbs.choices[verb]._actions
    ]
    assert surface == VERB_SURFACES[verb]


def test_function_defaults_are_read_from_the_library_not_restated():
    # ``--workers`` and ``--witness-limit`` take their defaults from the code
    # that applies them, and ``--help`` renders the same text as before.
    parser = build_parser()
    assert parser.parse_args(["sweep"]).workers == ExperimentRunner().workers
    assert parser.parse_args(["check", "h.json"]).witness_limit == CheckerConfig().witness_limit
    verbs = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    assert "grid (default 1)" in " ".join(verbs.choices["sweep"].format_help().split())
    assert "per channel (default 4)" in " ".join(verbs.choices["check"].format_help().split())


def test_run_json_echoes_the_library_defaults(capsys):
    # Every experiment flag left unset: the echo is the dataclass defaults,
    # apart from the CLI's own 15 s duration.
    assert main(["run", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "arrival_rate": 100.0,
        "block_size": 100,
        "chaincode": "EHR",
        "channels": 1,
        "cluster": "C1",
        "cross_channel_rate": 0.0,
        "database": "couchdb",
        "duration": 15.0,
        "endorsement_policy": "P0",
        "faults": None,
        "max_retries": 3,
        "placement": "hash",
        "repetitions": 1,
        "retry_backoff": 0.05,
        "retry_max_backoff": 2.0,
        "retry_policy": "none",
        "retry_rate_cap": None,
        "seed": 7,
        "shard_workers": 1,
        "variant": "fabric-1.4",
        "workload": "EHR-uniform",
        "zipf_skew": 1.0,
    }


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_rejects_unknown_variant():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--variant", "besu"])


def test_run_command_prints_failure_breakdown(capsys):
    exit_code = main(
        [
            "run",
            "--chaincode",
            "EHR",
            "--cluster",
            "C1",
            "--database",
            "leveldb",
            "--block-size",
            "10",
            "--rate",
            "40",
            "--duration",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "total failures (%)" in captured.out
    assert "endorsement policy failures (%)" in captured.out


def test_compare_command_lists_each_variant(capsys):
    exit_code = main(
        [
            "compare",
            "--variants",
            "fabric-1.4",
            "fabricsharp",
            "--database",
            "leveldb",
            "--block-size",
            "10",
            "--rate",
            "40",
            "--duration",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "fabric-1.4" in captured.out
    assert "fabricsharp" in captured.out


def test_figure_command_regenerates_an_artefact(capsys):
    exit_code = main(["figure", "table2", "--scale", "quick"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table 2" in captured.out
    assert "addEhr" in captured.out


def test_figure_command_rejects_unknown_artefact():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_figure_command_prints_the_single_id_outputs_concatenated(capsys):
    outputs = []
    for argv in (["fig6"], ["fig7"], ["fig6", "fig7"]):
        assert main(["figure", *argv, "--scale", "quick"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[0] + outputs[1]


def test_figure_all_is_every_id_in_catalog_order(monkeypatch, capsys):
    requested = []

    def record(ids, scale, runner):
        requested.append((list(ids), scale.name, runner.workers))
        return []

    monkeypatch.setattr(cli, "regenerate", record)
    assert main(["figure", "all", "--scale", "paper"]) == 0
    assert main(["figure", "fig9", "all"]) == 0
    assert requested == [
        (list(EXPERIMENTS), "paper", available_cores()),
        (["fig9", *EXPERIMENTS], "quick", available_cores()),
    ]
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", "fig6", "papr"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown figure id 'papr'" in err and "fig4" in err


# ------------------------------------------------------------------- sweep
SWEEP_BASE_ARGS = [
    "sweep",
    "--chaincode",
    "EHR",
    "--cluster",
    "C1",
    "--database",
    "leveldb",
    "--duration",
    "2",
]


def test_sweep_command_prints_one_row_per_cell(capsys):
    exit_code = main(SWEEP_BASE_ARGS + ["--block-sizes", "10", "30", "--rates", "40", "--no-cache"])
    captured = capsys.readouterr()
    assert exit_code == 0
    lines = captured.out.splitlines()
    assert any(line.startswith("Sweep: 2 cell(s)") for line in lines)
    cell_rows = [line for line in lines if line.startswith("fabric-1.4")]
    assert len(cell_rows) == 2
    assert "2 repetition(s): 0 cached, 2 executed" in captured.out


def test_sweep_command_sweeps_variants(capsys):
    exit_code = main(
        SWEEP_BASE_ARGS
        + ["--variants", "fabric-1.4", "streamchain", "--block-sizes", "10", "--no-cache"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "streamchain" in captured.out
    assert "fabric-1.4" in captured.out


def test_sweep_command_reports_cache_hits_across_invocations(tmp_path, capsys):
    arguments = SWEEP_BASE_ARGS + ["--block-sizes", "10", "30", "--cache-dir", str(tmp_path)]
    assert main(arguments) == 0
    first = capsys.readouterr().out
    assert "0 cached, 2 executed" in first

    assert main(arguments) == 0
    second = capsys.readouterr().out
    assert "2 cached, 0 executed" in second
    # Cached rerun reproduces the table rows exactly.
    assert [line for line in first.splitlines() if line.startswith("fabric-1.4")] == [
        line for line in second.splitlines() if line.startswith("fabric-1.4")
    ]


def test_sweep_json_reports_cache_traffic_and_damage(tmp_path, capsys):
    arguments = SWEEP_BASE_ARGS + ["--block-sizes", "10", "30", "--cache-dir", str(tmp_path)]
    assert main(arguments + ["--json"]) == 0
    cold = json.loads(capsys.readouterr().out)["runner_stats"]
    on_disk = sum(entry.stat().st_size for entry in tmp_path.glob("*.pkl"))
    assert (cold["cache_hits"], cold["cache_corrupt"], cold["cache_bytes"]) == (0, 0, on_disk)

    sorted(tmp_path.glob("*.pkl"))[0].write_bytes(b"not a pickle")
    assert main(arguments + ["--json"]) == 0
    healed = json.loads(capsys.readouterr().out)["runner_stats"]
    assert (healed["cache_hits"], healed["cache_corrupt"], healed["tasks_run"]) == (1, 1, 1)
    # Bytes appear in the JSON document only; the text stats line has no such column.
    assert main(arguments) == 0
    assert "bytes" not in capsys.readouterr().out


def test_sweep_command_runs_in_parallel(capsys):
    exit_code = main(
        SWEEP_BASE_ARGS + ["--block-sizes", "10", "30", "--workers", "2", "--no-cache"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "2 executed with 2 worker(s)" in captured.out


def test_sweep_command_rejects_empty_grid(capsys):
    exit_code = main(SWEEP_BASE_ARGS + ["--block-sizes"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "empty" in captured.err


def test_sweep_command_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(SWEEP_BASE_ARGS + ["--variants", "besu"])


def test_sweep_command_rejects_bad_worker_count(capsys):
    exit_code = main(SWEEP_BASE_ARGS + ["--block-sizes", "10", "--workers", "0"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "--workers" in captured.err


# ---------------------------------------------------------------- error paths
@pytest.mark.parametrize(
    "argv,expected",
    [
        (["run", "--chaincode", "nope"], "DRM, DV, EHR, SCM, genChain"),
        (["run", "--variant", "besu"], "fabric-1.4"),
        (["figure", "fig99"], "fig4"),
        (["run", "--placement", "round-robin"], "hash"),
    ],
)
def test_unknown_choices_list_valid_names_and_exit_2(argv, expected, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unknown" in captured.err
    assert expected in captured.err


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_chaincode_choices_are_the_five_a_uniform_workload_is_built_over(command, capsys):
    # The generated chaincode is registered too, but it has no functions
    # until a specification gives it some: ``--chaincode`` cannot name it.
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--chaincode", "generated"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "unknown chaincode 'generated'; valid choices: DRM, DV, EHR, SCM, genChain"
    )


def test_cross_channel_rate_without_channels_exits_2(capsys):
    exit_code = main(["run", "--cross-channel-rate", "0.5", "--duration", "1"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "cross-channel" in captured.err


# -------------------------------------------------------------------- channels
RUN_CHANNEL_ARGS = [
    "run",
    "--database",
    "leveldb",
    "--block-size",
    "10",
    "--rate",
    "60",
    "--duration",
    "2",
    "--channels",
    "2",
]


def test_run_command_prints_per_channel_breakdown(capsys):
    exit_code = main(RUN_CHANNEL_ARGS + ["--cross-channel-rate", "0.3"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Per-channel breakdown" in captured.out
    assert "channel0" in captured.out
    assert "channel1" in captured.out
    assert "cross-channel aborts (%)" in captured.out


def _table_rows(out: str) -> dict:
    """``label -> value`` of the first text table of ``out``."""
    table = out.split("\n\n")[0]
    return {
        label.strip(): value.strip()
        for label, _, value in (line.partition("|") for line in table.splitlines() if "|" in line)
    }


@pytest.mark.parametrize(
    "variant,chaincode,row",
    [("fabric++", "SCM", "aborted in ordering (%)"), ("fabricsharp", "EHR", "early aborts (%)")],
)
def test_run_command_prints_a_row_for_every_class_that_occurred(capsys, variant, chaincode, row):
    args = ["--variant", variant, "--chaincode", chaincode, "--block-size", "10", "--duration", "3"]
    assert main(["run", "--database", "leveldb", *args]) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert float(rows[row]) > 0
    # The classes that did not occur print no row beyond the paper's four.
    percent_rows = [label for label in rows if label.endswith("(%)")]
    assert percent_rows[:5] == [
        "total failures (%)",
        "endorsement policy failures (%)",
        "intra-block MVCC conflicts (%)",
        "inter-block MVCC conflicts (%)",
        "phantom read conflicts (%)",
    ]
    assert "cross-channel aborts (%)" not in rows and "peer unavailable (%)" not in rows
    # What the rows say adds up to what the JSON document says.
    assert main(["run", "--database", "leveldb", *args, "--json"]) == 0
    failures = json.loads(capsys.readouterr().out)["result"]["failures"]
    printed = sum(float(rows[label]) for label in percent_rows[1:])
    assert printed == pytest.approx(sum(failures.values()) - failures["total"], abs=0.05)


# ------------------------------------------------------------------------ json
def test_run_command_json_output(capsys):
    exit_code = main(RUN_CHANNEL_ARGS + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["command"] == "run"
    assert document["config"]["channels"] == 2
    assert document["result"]["submitted_transactions"] > 0
    assert "cross_channel_abort" in document["result"]["failures"]
    assert len(document["result"]["channels"]) == 2
    assert isinstance(document["recommendations"], list)


def test_compare_command_json_output(capsys):
    exit_code = main(
        [
            "compare",
            "--variants",
            "fabric-1.4",
            "streamchain",
            "--database",
            "leveldb",
            "--block-size",
            "10",
            "--rate",
            "40",
            "--duration",
            "2",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["command"] == "compare"
    variants = [entry["variant"] for entry in document["variants"]]
    assert variants == ["fabric-1.4", "streamchain"]
    assert all("failures" in entry for entry in document["variants"])


def test_sweep_command_json_output(capsys):
    exit_code = main(
        SWEEP_BASE_ARGS + ["--block-sizes", "10", "30", "--no-cache", "--json"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["command"] == "sweep"
    assert len(document["cells"]) == 2
    assert document["runner_stats"]["tasks_total"] == 2
    assert {cell["block_size"] for cell in document["cells"]} == {10, 30}


def _headers(out: str) -> list:
    """The column headers of the first table printed to ``out``."""
    line = next(line for line in out.splitlines() if "|" in line)
    return [cell.strip() for cell in line.split("|")]


COMPARE_ARGS = [
    "compare", "--variants", "fabric-1.4", "fabricsharp", "--database", "leveldb",
    "--block-size", "10", "--rate", "40", "--duration", "2",
]


@pytest.mark.parametrize(
    "argv,entries",
    [(COMPARE_ARGS, "variants"), (SWEEP_BASE_ARGS + ["--no-cache"], "cells")],
)
def test_json_names_every_number_as_the_table_does(capsys, argv, entries):
    assert main(argv) == 0
    headers = _headers(capsys.readouterr().out)
    assert main(argv + ["--json"]) == 0
    for entry in json.loads(capsys.readouterr().out)[entries]:
        assert set(entry) == {*headers, "failures"}


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_json_failure_breakdown_averages_the_repetitions(capsys, command):
    # The breakdown sits beside columns averaged over the repetitions, so it
    # is averaged too (it used to be the first repetition's alone).
    argv = COMPARE_ARGS if command == "compare" else SWEEP_BASE_ARGS + ["--no-cache"]
    assert main(argv + ["--repetitions", "3", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    for entry in document["variants" if command == "compare" else "cells"]:
        failures = entry["failures"]
        assert failures["total"] == entry["failures_pct"]
        mvcc = ("intra_block_mvcc_read_conflict", "inter_block_mvcc_read_conflict")
        assert sum(failures[name] for name in mvcc) == pytest.approx(entry["mvcc_pct"])
        assert failures["endorsement_policy_failure"] == entry["endorsement_policy_pct"]


def test_compare_and_sweep_agree_on_every_shared_header(capsys):
    # compare is a sweep over variants: the same cells give the same numbers.
    assert main(COMPARE_ARGS + ["--json"]) == 0
    compared = json.loads(capsys.readouterr().out)["variants"]
    assert main(["sweep", *COMPARE_ARGS[1:], "--no-cache", "--json"]) == 0
    swept = json.loads(capsys.readouterr().out)["cells"]
    assert len(compared) == len(swept) == 2
    for compare_cell, sweep_cell in zip(compared, swept):
        shared = set(compare_cell) & set(sweep_cell)
        assert shared == {
            "variant", "latency_s", "endorsement_policy_pct", "mvcc_pct", "failures_pct",
            "committed_throughput_tps", "failures",
        }
        assert {key: compare_cell[key] for key in shared} == {
            key: sweep_cell[key] for key in shared
        }


# ----------------------------------------------------------------- versioning
def test_version_flag_prints_the_single_sourced_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == f"repro {repro.__version__}"


# -------------------------------------------------------------------- retries
RUN_RETRY_ARGS = [
    "run",
    "--database",
    "leveldb",
    "--block-size",
    "10",
    "--rate",
    "40",
    "--skew",
    "1.4",
    "--duration",
    "2",
    "--retry-policy",
    "jittered",
    "--max-retries",
    "2",
]


def test_run_command_prints_retry_metrics(capsys):
    exit_code = main(RUN_RETRY_ARGS)
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "client-effective failures (%)" in captured.out
    assert "goodput (requests/s)" in captured.out
    assert "retry amplification (x)" in captured.out


def test_run_command_json_includes_retry_and_lifecycle_fields(capsys):
    exit_code = main(RUN_RETRY_ARGS + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["config"]["retry_policy"] == "jittered"
    assert document["config"]["max_retries"] == 2
    result = document["result"]
    assert result["resubmissions"] > 0
    assert result["retry_amplification"] > 1.0
    assert result["client_effective_failure_pct"] <= result["failures"]["total"]
    assert result["lifecycle_events"]["submitted"] >= result["submitted_transactions"]


def test_json_config_echoes_retry_max_backoff(capsys):
    # Without it the echoed config cannot reproduce a run that set the flag;
    # every other experiment flag is set to a value other than its default too.
    echoed = {
        "--variant": ("fabric++", "variant", "fabric++"),
        "--chaincode": ("SCM", "chaincode", "SCM"),
        "--cluster": ("C2", "cluster", "C2"),
        "--database": ("leveldb", "database", "leveldb"),
        "--block-size": ("20", "block_size", 20),
        "--policy": ("P1", "endorsement_policy", "P1"),
        "--rate": ("60", "arrival_rate", 60.0),
        "--duration": ("2", "duration", 2.0),
        "--skew": ("0.5", "zipf_skew", 0.5),
        "--repetitions": ("2", "repetitions", 2),
        "--seed": ("3", "seed", 3),
        "--channels": ("2", "channels", 2),
        "--placement": ("range", "placement", "range"),
        "--cross-channel-rate": ("0.1", "cross_channel_rate", 0.1),
        "--shard-workers": ("2", "shard_workers", 2),
        "--retry-policy": ("fixed", "retry_policy", "fixed"),
        "--max-retries": ("2", "max_retries", 2),
        "--retry-backoff": ("0.1", "retry_backoff", 0.1),
        "--retry-max-backoff": ("7.5", "retry_max_backoff", 7.5),
        "--retry-rate-cap": ("5", "retry_rate_cap", 5.0),
    }
    argv = ["run", "--json", "--fault-spec", "peer-crash:rate=0.1,downtime=1"]
    for option, (value, _, _) in echoed.items():
        argv += [option, value]
    assert main(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert {key: config[key] for _, key, _ in echoed.values()} == {
        key: value for _, key, value in echoed.values()
    }
    assert config["workload"] == "SCM-uniform"
    assert (config["faults"]["peer_crash_rate"], config["faults"]["peer_downtime"]) == (0.1, 1.0)


def test_a_given_retry_max_backoff_below_the_backoff_exits_2(capsys):
    # A given cap is used as given; only an unset one follows the backoff up.
    argv = ["run", "--retry-policy", "fixed", "--retry-backoff", "0.5", "--duration", "2"]
    assert main(argv + ["--retry-max-backoff", "0.1", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: max_backoff=0.1 must be >= backoff=0.5" in captured.err


def test_run_command_without_retries_omits_retry_rows(capsys):
    exit_code = main(["run", "--database", "leveldb", "--rate", "40", "--duration", "2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "client-effective failures (%)" not in captured.out


def test_unknown_retry_policy_lists_valid_names_and_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--retry-policy", "chaotic"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unknown retry policy" in captured.err
    assert "fixed, immediate, jittered, none" in captured.err


def test_run_command_with_zero_max_retries_omits_retry_rows(capsys):
    exit_code = main(
        [
            "run",
            "--database",
            "leveldb",
            "--rate",
            "40",
            "--duration",
            "2",
            "--retry-policy",
            "jittered",
            "--max-retries",
            "0",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    # max-retries 0 disables the subsystem entirely; no retry rows should
    # imply otherwise.
    assert "client-effective failures (%)" not in captured.out


def test_retry_max_backoff_flag_lets_fixed_backoff_exceed_the_default_cap(capsys):
    exit_code = main(
        [
            "run",
            "--database",
            "leveldb",
            "--rate",
            "40",
            "--duration",
            "2",
            "--retry-policy",
            "fixed",
            "--retry-backoff",
            "3",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    # A backoff above the 2s default max_backoff must not be rejected: the
    # CLI raises the cap to the backoff, and --retry-max-backoff raises it
    # further for the jittered window.
    assert "client-effective failures (%)" in captured.out


# ------------------------------------------------------------------- faults
RUN_FAULT_ARGS = [
    "run",
    "--database",
    "leveldb",
    "--block-size",
    "10",
    "--rate",
    "60",
    "--duration",
    "2",
]


def test_fault_spec_dsl_prints_infrastructure_rows(capsys):
    exit_code = main(
        RUN_FAULT_ARGS
        + [
            "--fault-spec",
            "peer-crash:rate=0.3,downtime=1;orderer-outage:start=0.5,duration=0.5;"
            "endorsement-loss:rate=0.1",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    # One row per class that occurred; this profile produces all three.
    assert "endorsement timeouts (%)" in captured.out
    assert "orderer unavailable (%)" in captured.out
    assert "peer unavailable (%)" in captured.out
    assert "fault injections" in captured.out


def test_fault_spec_json_document_includes_fault_telemetry(capsys):
    exit_code = main(
        RUN_FAULT_ARGS
        + ["--fault-spec", '{"orderer_outages": [[0.5, 0.5]]}', "--json"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["config"]["faults"]["orderer_outages"] == [[0.5, 0.5]]
    assert document["result"]["fault_injections"]["orderer_outage_start"] == 1
    assert "orderer_unavailable" in document["result"]["failures"]


def test_no_fault_spec_omits_fault_rows_and_nulls_json_faults(capsys):
    assert main(RUN_FAULT_ARGS) == 0
    assert "fault injections" not in capsys.readouterr().out
    assert main(RUN_FAULT_ARGS + ["--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["config"]["faults"] is None


def test_fault_spec_unknown_fault_type_lists_valid_choices_and_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--fault-spec", "meteor-strike:rate=1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unknown fault type 'meteor-strike'" in captured.err
    assert "endorsement-loss, endorsement-timeout, endorser-slowdown" in captured.err
    assert "orderer-outage, partition, peer-crash" in captured.err


def test_fault_spec_malformed_json_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--fault-spec", "{bad json"])
    assert excinfo.value.code == 2
    assert "malformed fault spec JSON" in capsys.readouterr().err


def test_fault_spec_invalid_values_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--fault-spec", "endorsement-loss:rate=1.5"])
    assert excinfo.value.code == 2
    assert "endorsement loss rate" in capsys.readouterr().err


def test_fault_spec_partition_beyond_channels_exits_2(capsys):
    exit_code = main(
        RUN_FAULT_ARGS + ["--fault-spec", "partition:channel=3,start=0,duration=1"]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "channel 3" in captured.err


#: A ``--fault-spec`` with a NaN or infinite number -> the field its error names.
NON_FINITE_FAULT_SPECS = {
    "peer-crash:rate=0.1,downtime=inf": "mean peer downtime",
    "peer-crash:rate=0.1,downtime=nan": "mean peer downtime",
    "endorser-slowdown:rate=0.1,factor=nan": "endorser slowdown factor",
    "peer-crash:rate=inf": "peer crash rate",
    '{"peer_crash": {"rate": NaN}}': "peer crash rate",
    "orderer-outage:start=nan,duration=1": "orderer outage windows",
    "partition:channel=inf,start=0,duration=1": "partition.channel",
}


@pytest.mark.parametrize("spec", NON_FINITE_FAULT_SPECS)
def test_fault_spec_non_finite_numbers_exit_2_naming_the_field(capsys, spec):
    # NaN slips through every ``x < bound`` comparison and infinity through
    # every ``x > 0``; each input here used to crash, run, or fail elsewhere.
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_FAULT_ARGS + ["--fault-spec", spec])
    assert excinfo.value.code == 2
    assert NON_FINITE_FAULT_SPECS[spec] in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parser_rejects_non_finite_duration(capsys, value):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["run", f"--duration={value}"])
    assert excinfo.value.code == 2
    assert f"duration must be a finite number, got {value!r}" in capsys.readouterr().err


def test_parser_rejects_non_finite_rate(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["run", "--rate", "inf"])
    assert excinfo.value.code == 2
    assert "rate must be a finite number, got 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("run", "--skew", "nan"),
        ("sweep", "--skews", "inf"),
        ("sweep", "--rates", "nan"),
        ("run", "--cross-channel-rate", "nan"),
        ("run", "--retry-backoff", "inf"),
        ("run", "--retry-max-backoff", "nan"),
        ("run", "--retry-rate-cap", "nan"),
    ],
)
def test_parser_rejects_a_non_finite_value_naming_the_option(capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, flag, value])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert f"argument {flag}:" in error
    assert f"must be a finite number, got {value!r}" in error


def test_parser_still_accepts_finite_duration_and_rate():
    parser = build_parser()
    args = parser.parse_args(["run", "--duration", "12.5", "--rate", "250"])
    assert args.duration == 12.5
    assert args.rate == 250.0


# -------------------------------------------------------------- observability
RUN_TRACE_ARGS = [
    "run",
    "--chaincode",
    "EHR",
    "--rate",
    "40",
    "--duration",
    "2",
]


def test_run_trace_out_writes_a_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    exit_code = main(RUN_TRACE_ARGS + ["--trace-out", str(trace)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Critical path (committed transactions)" in captured.out
    document = json.loads(trace.read_text())
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    phases = {event["ph"] for event in events}
    assert {"X", "M"} <= phases
    roots = [event for event in events if event.get("cat") == "tx"]
    assert roots, "no transaction attempt spans in the trace"
    assert all("tx_id" in event["args"] for event in roots)


def test_run_metrics_out_writes_summary_series_and_markers(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    exit_code = main(RUN_TRACE_ARGS + ["--metrics-out", str(metrics)])
    capsys.readouterr()
    assert exit_code == 0
    document = json.loads(metrics.read_text())
    assert {"summary", "series", "markers"} <= set(document)
    assert document["series"], "the sampler produced no rows"
    assert "tps" in document["series"][-1]


def test_run_json_reports_quantiles_and_stage_latency(capsys):
    exit_code = main(RUN_TRACE_ARGS + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    result = json.loads(captured.out)["result"]
    assert {"p50", "p95", "p99"} <= set(result["latency_quantiles_s"])
    assert "endorse" in result["stage_latency_s"]
    assert result["stage_latency_s"]["endorse"]["count"] > 0


def test_run_json_with_trace_out_includes_critical_path_and_exports(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    exit_code = main(RUN_TRACE_ARGS + ["--json", "--trace-out", str(trace)])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["critical_path"]["committed"] > 0
    assert document["exports"]["trace"] == str(trace)


def test_trace_summary_reports_the_critical_path(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(RUN_TRACE_ARGS + ["--trace-out", str(trace)]) == 0
    capsys.readouterr()
    exit_code = main(["trace", "summary", str(trace)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "committed transactions:" in captured.out
    assert "dominant" in captured.out


def test_trace_summary_json_output(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(RUN_TRACE_ARGS + ["--trace-out", str(trace)]) == 0
    capsys.readouterr()
    exit_code = main(["trace", "summary", str(trace), "--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    report = json.loads(captured.out)
    assert report["committed"] > 0
    assert all("stage" in row for row in report["stages"])


def test_trace_summary_of_missing_file_exits_2(capsys):
    exit_code = main(["trace", "summary", "/tmp/definitely-not-a-trace.json"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "does not exist" in captured.err


def test_trace_summary_of_non_trace_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{\"not\": \"a trace\"}")
    exit_code = main(["trace", "summary", str(bogus)])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "not a Chrome trace-event file" in captured.err


def test_trace_out_into_missing_directory_exits_2(capsys):
    exit_code = main(RUN_TRACE_ARGS + ["--trace-out", "/nonexistent/dir/trace.json"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "--trace-out" in captured.err


def test_metrics_out_onto_a_directory_exits_2(tmp_path, capsys):
    exit_code = main(RUN_TRACE_ARGS + ["--metrics-out", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "--metrics-out" in captured.err


def test_sweep_trace_out_merges_cells_and_bypasses_the_cache(tmp_path, capsys):
    trace = tmp_path / "sweep-trace.json"
    metrics = tmp_path / "sweep-metrics.json"
    exit_code = main(
        [
            "sweep",
            "--chaincode",
            "EHR",
            "--variant",
            "fabric-1.4",
            "--rates",
            "30",
            "60",
            "--duration",
            "1",
            "--trace-out",
            str(trace),
            "--metrics-out",
            str(metrics),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "bypass" in captured.err.lower()
    document = json.loads(trace.read_text())
    pids = {event["pid"] for event in document["traceEvents"]}
    assert len(pids) == 2, "expected one trace process per sweep cell"
    cells = json.loads(metrics.read_text())["cells"]
    assert len(cells) == 2
    assert all("summary" in cell for cell in cells)


def test_sweep_verdict_table_and_metrics_export_name_the_cells_alike(tmp_path, capsys):
    metrics = tmp_path / "sweep-metrics.json"
    exit_code = main(
        [
            "sweep",
            "--database",
            "leveldb",
            "--block-sizes",
            "50",
            "10",
            "--rates",
            "30",
            "--duration",
            "1",
            "--check-isolation",
            "--metrics-out",
            str(metrics),
        ]
    )
    assert exit_code == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("Isolation verdicts") + 3 :]
    verdict_labels = [line.split("|")[0].strip() for line in table[: table.index("")]]
    metrics_labels = [cell["cell"] for cell in json.loads(metrics.read_text())["cells"]]
    assert verdict_labels == metrics_labels == [
        "fabric-1.4-bs50-r30-z1",
        "fabric-1.4-bs10-r30-z1",
    ]


# ------------------------------------------------------------- shard workers
RUN_SHARDED_ARGS = [
    "run",
    "--database",
    "leveldb",
    "--block-size",
    "10",
    "--rate",
    "60",
    "--duration",
    "2",
    "--channels",
    "4",
    "--cross-channel-rate",
    "0",
]


def test_run_command_shard_workers_auto_shards_the_run(capsys):
    exit_code = main(RUN_SHARDED_ARGS + ["--shard-workers", "0", "--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["config"]["shard_workers"] == 0
    assert document["result"]["execution"] == "sharded"
    assert document["result"]["shard_count"] == 4


def test_run_command_defaults_to_one_clock_per_uncoupled_channel(capsys):
    exit_code = main(RUN_SHARDED_ARGS + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["config"]["shard_workers"] == 1
    assert document["result"]["execution"] == "sharded"
    assert document["result"]["shard_count"] == 4


def test_run_command_text_output_names_the_execution(capsys):
    exit_code = main(RUN_SHARDED_ARGS + ["--shard-workers", "0"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "sharded (4 shards)" in captured.out


@pytest.mark.parametrize("bad", ["-3", "two", "1.5"])
def test_run_command_rejects_invalid_shard_workers(bad, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_SHARDED_ARGS + ["--shard-workers", bad])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "shard workers" in captured.err
    assert "valid values: 0 (auto), 1 (this process only)" in captured.err


def test_sharded_and_shared_clock_runs_print_identical_metrics(capsys, tmp_path):
    # A recorded run keeps the shared clock; recording implies the checker.
    history = str(tmp_path / "history.json")
    assert main(RUN_SHARDED_ARGS + ["--history-out", history, "--json"]) == 0
    shared = json.loads(capsys.readouterr().out)
    assert main(RUN_SHARDED_ARGS + ["--check-isolation", "--shard-workers", "0", "--json"]) == 0
    sharded = json.loads(capsys.readouterr().out)
    assert shared["result"]["execution"] == "shared-clock"
    assert sharded["result"]["execution"] == "sharded"
    del shared["config"]["shard_workers"], sharded["config"]["shard_workers"]
    assert shared.pop("exports") == {"history": history}  # what recording adds
    for document in (shared, sharded):
        document["result"].pop("execution")
        document["result"].pop("shard_count")
    assert sharded == shared


# --------------------------------------------------------------------- checker
RUN_CHECKED_ARGS = [
    "run",
    "--database",
    "leveldb",
    "--block-size",
    "10",
    "--rate",
    "60",
    "--duration",
    "2",
    "--check-isolation",
]


def test_check_command_on_missing_file_exits_2_listing_valid_inputs(capsys):
    exit_code = main(["check", "/nonexistent/history.json"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "does not exist" in captured.err
    assert "valid inputs:" in captured.err
    assert "repro-history/1" in captured.err


def test_check_command_on_malformed_json_exits_2(tmp_path, capsys):
    target = tmp_path / "broken.json"
    target.write_text("{not json", encoding="utf-8")
    exit_code = main(["check", str(target)])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "not a JSON document" in captured.err
    assert "valid inputs:" in captured.err


def test_check_command_on_wrong_format_exits_2(tmp_path, capsys):
    target = tmp_path / "other.json"
    target.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    exit_code = main(["check", str(target)])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "repro-history/1" in captured.err
    assert "valid inputs:" in captured.err


def test_check_command_rejects_non_positive_witness_limit(tmp_path, capsys):
    target = tmp_path / "history.json"
    target.write_text(json.dumps({"format": "repro-history/1", "channels": []}))
    exit_code = main(["check", str(target), "--witness-limit", "0"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "--witness-limit" in captured.err


def test_check_command_rejects_unknown_level(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "whatever.json", "--level", "read-committed"])
    assert excinfo.value.code == 2


def test_run_check_isolation_and_offline_recheck_agree(tmp_path, capsys):
    history = tmp_path / "history.json"
    exit_code = main(RUN_CHECKED_ARGS + ["--history-out", str(history), "--json"])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert document["result"]["isolation"]["verdict"] == "CERTIFIED-SERIALIZABLE"
    assert history.is_file()
    assert document["exports"] == {"history": str(history)}
    exit_code = main(["check", str(history), "--json"])
    checked = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert checked["certified"] is True
    assert checked["verdict"] == document["result"]["isolation"]["verdict"]
    assert checked["committed"] == document["result"]["isolation"]["committed"]


def test_check_command_refutes_a_fabricated_anomaly_with_exit_1(tmp_path, capsys):
    # A lost update: both transactions read the initial state of the same key
    # and overwrite it.  ``repro check`` must refute with a printed witness.
    history = {
        "format": "repro-history/1",
        "channels": [
            {
                "channel": None,
                "committed": [
                    {
                        "tx": "t0",
                        "block": 1,
                        "index": 0,
                        "reads": [["ka", None]],
                        "writes": [["ka", False]],
                    },
                    {
                        "tx": "t1",
                        "block": 1,
                        "index": 1,
                        "reads": [["ka", None]],
                        "writes": [["ka", False]],
                    },
                ],
                "aborted": [],
            }
        ],
    }
    target = tmp_path / "lost_update.json"
    target.write_text(json.dumps(history), encoding="utf-8")
    exit_code = main(["check", str(target)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "REFUTED" in captured.out
    assert "-rw[ka]->" in captured.out


def test_run_text_output_prints_the_isolation_verdict(capsys):
    exit_code = main(RUN_CHECKED_ARGS)
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "isolation verdict" in captured.out
    assert "CERTIFIED-SERIALIZABLE" in captured.out
