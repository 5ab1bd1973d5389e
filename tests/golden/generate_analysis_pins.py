"""Regenerate the pinned ledger analysis (``analysis_pins.json``), field by field.

``lifecycle_golden.json`` pins ten scalar metrics of the aggregate and
``sim_digest`` hashes six values; nothing else in the repo would notice a moved
latency quantile, stage breakdown, per-call latency, logical-request count or
measurement horizon, nor any per-channel metric.  This file pins *every* field
of :class:`~repro.core.metrics.ExperimentMetrics` — the aggregate and each
``ChannelAnalysis.metrics`` — for three cells: the C1 single-channel cell and
the C2 chaos cell of ``tests/test_single_channel_pins.py``, and one 8-channel
cell with cross-channel traffic.  Floats are stored by ``repr`` so the JSON
round trip cannot round them; dictionaries keep their insertion order, which
is part of what is pinned.

The means (``average_latency``, ``stage_latency.*.mean_s``) go through
``sum()``, which is compensated since Python 3.12: like
``lifecycle_golden.json`` this file holds the values of the interpreter tier-1
runs on (3.11) and shares that file's exposure to a newer one.

Usage::

    PYTHONPATH=src python tests/golden/generate_analysis_pins.py [OUT.json]
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import test_single_channel_pins as single  # noqa: E402

from repro.bench.harness import ExperimentConfig  # noqa: E402
from repro.core.analyzer import ExperimentAnalysis, LedgerAnalyzer  # noqa: E402
from repro.network.config import NetworkConfig  # noqa: E402
from repro.workload.workloads import uniform_workload  # noqa: E402

PINS_PATH = Path(__file__).parent / "analysis_pins.json"

HEADER = (
    "Every ExperimentMetrics field, aggregate and per channel, floats by repr; "
    "written by generate_analysis_pins.py under Python 3.11 (the means go through "
    "sum(), compensated since 3.12: same exposure as lifecycle_golden.json)."
)


def eight_channel_cell() -> ExperimentConfig:
    """Eight coupled channels on one clock: per-channel metrics, 2PC stages."""
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=uniform_workload("EHR", patients=60),
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=8,
            cross_channel_rate=0.1,
        ),
        arrival_rate=400.0,
        duration=3.0,
        zipf_skew=1.0,
        seed=29,
    )


#: pin name -> the cell it analyses.
CELLS = {
    "single-channel/EHR-C1": single.CELLS["fabric-1.4/EHR/C1"][0],
    "single-channel/chaos-C2": single.CELLS["chaos/C2"][0],
    "8-channel/EHR-C1": eight_channel_cell(),
}


def analyse(config: ExperimentConfig) -> ExperimentAnalysis:
    return LedgerAnalyzer().analyze(single.run(single.build(config), config))


def pinned(value):
    """``value`` as JSON data that round-trips exactly (floats by ``repr``)."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: pinned(getattr(value, field.name)) for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            str(key.value if isinstance(key, enum.Enum) else key): pinned(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [pinned(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def analysis_pins(analysis: ExperimentAnalysis) -> dict:
    """``{"aggregate": fields, "channels": {index: fields}}`` of one analysis."""
    return {
        "aggregate": pinned(analysis.metrics),
        "channels": {
            str(channel.index): pinned(channel.metrics) for channel in analysis.channel_analyses
        },
    }


def main(argv: list) -> int:
    out_path = Path(argv[1]) if len(argv) > 1 else PINS_PATH
    pins = {"//": HEADER}
    pins.update({name: analysis_pins(analyse(config)) for name, config in CELLS.items()})
    out_path.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(CELLS)} analysed cells to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
