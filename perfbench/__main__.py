"""``python3 -m perfbench`` — run the benchmark, from the repository root.

    python3 -m perfbench                     every workload, 5 trials each
    python3 -m perfbench --trace             … plus the per-layer metrics
    python3 -m perfbench --smoke --trace     durations / 20, one trial: a self-test
    python3 -m perfbench compare A.json B.json

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1

The last form is the one ``BENCHMARK.json`` names: one workload, job trials
until ``S`` seconds have been measured (two at least), and as the last line of
output one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from one untraced and one traced trial) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import signal
import sys

from perfbench import SRC_DIR, load_manifest


#: Set-up trials of a ``--seconds`` run, which has no time for the usual nine.
CONTRACT_SETUP_TRIALS = 5


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from perfbench import compare

        if len(argv) != 3:
            print("usage: python3 -m perfbench compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])

    names = [entry["name"] for entry in load_manifest()["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7, help="flows into ExperimentConfig.seed")
    parser.add_argument("--trials", type=int, default=5, help="job trials per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of --trials; end with the result line")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the traced trials (twice) for the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="simulated durations / 20, 1 trial, 1 traced run")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"perfbench: no simulator at {SRC_DIR / 'repro'} — run from a full checkout",
              file=sys.stderr)
        return 2
    from perfbench import suite

    selected = args.workload or names
    contract = args.seconds is not None
    if contract and len(selected) != 1:
        parser.error("--seconds takes exactly one --workload")
    options = dict(trials=args.trials, trace_repeats=2 * args.trace, smoke=args.smoke)
    if args.smoke:
        options.update(trials=1, setup_trials=1, trace_repeats=args.trace)
    elif contract and args.trace:
        # The traced run of the driver needs the untraced trials only as the
        # base of trace_overhead_x and for the metrics measured from outside,
        # and its result line cannot say whether a count is exact: one traced
        # trial, so that the run takes about as long as an untraced one.
        options.update(trials=1, setup_trials=3, trace_repeats=1)
    elif contract:
        options.update(seconds=args.seconds, setup_trials=CONTRACT_SETUP_TRIALS)

    result = suite.run_suite(selected, args.seed, **options)
    suite.write_result(result)
    print(suite.format_result(result, per_layer=bool(args.trace)))
    if contract:
        print(suite.contract_line(result, selected[0], traced=bool(args.trace)))
    failed = sum(block["end_to_end"]["failed_share"]["failed"]
                 for block in result["workloads"].values())
    return 0 if contract or not failed else 1


if __name__ == "__main__":
    # Terminated runs unwind like interrupted ones, so the trial in flight is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
