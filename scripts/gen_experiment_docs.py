#!/usr/bin/env python
"""Generate ``docs/EXPERIMENTS.md`` from the experiment registry.

The catalog is derived entirely from code — the :data:`EXPERIMENTS` registry
the CLI's ``figure`` command and the benchmarks run from (paper artefact and
section, summary, sweep axes, variant family, expected trend) — so it can never
silently drift from the implementation.  CI runs ``--check``, which fails when
the committed file differs from what the registry would generate.

Usage::

    PYTHONPATH=src python scripts/gen_experiment_docs.py          # rewrite
    PYTHONPATH=src python scripts/gen_experiment_docs.py --check  # verify
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.experiments import EXPERIMENTS  # noqa: E402

OUTPUT = REPO_ROOT / "docs" / "EXPERIMENTS.md"

HEADER = """\
# Experiment catalog

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with: PYTHONPATH=src python scripts/gen_experiment_docs.py
     CI verifies this file with the --check flag. -->

Every table and figure of the paper's evaluation — plus the extension
scenarios (channels, retries, fault injection) — is one entry of
`repro.bench.experiments.EXPERIMENTS`. Regenerate any of them with:

```bash
PYTHONPATH=src python -m repro figure <id> [--scale quick|standard|paper]
```

or run the whole suite through the benchmark harness
(`pytest benchmarks/ -m slow`). The *expected trend* column states the
qualitative result each reproduction must show; the corresponding
`benchmarks/bench_*.py` modules assert the quantitative acceptance bars.
"""


def render() -> str:
    """The complete catalog markdown."""
    lines = [HEADER]
    lines.append("| id | artefact | sweep axes | variants | expected trend |")
    lines.append("| --- | --- | --- | --- | --- |")
    for experiment_id, spec in EXPERIMENTS.items():
        lines.append(
            f"| `{experiment_id}` | {spec.artefact} | "
            f"{', '.join(f'`{axis}`' for axis in spec.sweep_axes)} | "
            f"{spec.variants} | {spec.expected_trend} |"
        )
    lines.append("")
    lines.append("## Details")
    lines.append("")
    for experiment_id, spec in EXPERIMENTS.items():
        lines.append(f"### `{experiment_id}` — {spec.artefact}")
        lines.append("")
        lines.append(f"{spec.summary}.")
        lines.append("")
        lines.append(f"- **Paper section:** {spec.section}")
        lines.append(f"- **Sweep axes:** {', '.join(f'`{axis}`' for axis in spec.sweep_axes)}")
        lines.append(f"- **Variant family:** {spec.variants}")
        lines.append(f"- **Expected trend:** {spec.expected_trend}")
        lines.append(f"- **CLI:** `python -m repro figure {experiment_id}`")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/EXPERIMENTS.md is up to date instead of rewriting it",
    )
    args = parser.parse_args(argv)

    content = render()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != content:
            print(
                f"error: {OUTPUT.relative_to(REPO_ROOT)} is out of date; regenerate with:\n"
                "  PYTHONPATH=src python scripts/gen_experiment_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date ({len(EXPERIMENTS)} entries)")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} ({len(EXPERIMENTS)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
