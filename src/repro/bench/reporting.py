"""Plain-text reporting of experiment results.

The benchmark modules print the same rows/series the paper's tables and figures
report; this module renders them as aligned text tables so the output of
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction log stored
in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_value(value) -> str:
    """Render one cell: floats get two decimals, everything else ``str()``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table with optional title."""
    rendered_rows: List[List[str]] = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, series: Mapping[object, object]) -> str:
    """Render a one-dimensional series (x -> y) as a compact table."""
    return format_table(["x", "value"], list(series.items()), title=title)


def print_report(text: str) -> None:
    """Print a report block with surrounding blank lines (benchmark output)."""
    print(f"\n{text}\n")


def format_progress(event) -> str:
    """Render a runner :class:`~repro.bench.runner.ProgressEvent` as one line.

    Example: ``[ 7/24]  29% | 3 cached | elapsed 2.1s | eta 5.0s``.
    """
    width = len(str(event.total))
    percent = 100.0 * event.completed / event.total if event.total else 100.0
    return (
        f"[{event.completed:>{width}}/{event.total}] {percent:3.0f}% | "
        f"{event.cache_hits} cached | elapsed {event.elapsed:.1f}s | eta {event.eta:.1f}s"
    )
