"""Regenerate the pinned trace and metrics exports, part by part.

Runs the chaos cells of ``tests/test_single_channel_pins.py`` and
``tests/test_sharded_execution.py`` and writes one pin per exported file —
whole-file digest, digest of the simulated system's parts, and a short digest
per part (see ``tests/export_parts.py``).  After a change that is meant to move
only how the engine schedules, the diff of the regenerated file must leave
every ``simulated`` line alone.

Usage::

    PYTHONPATH=src python tests/golden/generate_export_pins.py [OUT.json]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import test_sharded_execution as sharded  # noqa: E402
import test_single_channel_pins as single  # noqa: E402
from export_parts import PINS_PATH, exported_bytes, pin_of  # noqa: E402


def pinned_records() -> dict:
    """``pin name -> RunRecord`` of every cell whose exports are pinned."""
    config = single.CELLS["chaos/C2"][0]
    records = {single.CHAOS_EXPORT_PIN: single.run(single.build(config), config)}
    for execution, pin in sharded.CHAOS_AUDIT_EXPORTS.values():
        if pin not in records:
            records[pin] = sharded.run_cell(sharded.chaos_audit_cell(execution))[1]
    return records


def main(argv: list) -> int:
    out_path = Path(argv[1]) if len(argv) > 1 else PINS_PATH
    pins = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, record in pinned_records().items():
            for kind, exported in exported_bytes(record.observability, Path(directory)).items():
                pins[f"{name}/{kind}"] = pin_of(exported)
    out_path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} export pins to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
