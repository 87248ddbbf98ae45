"""Plain-text tables for the paper ledger and the ``repro-serve``/``repro-sched`` reports."""

from __future__ import annotations

from typing import Iterable


def format_table(headers: list[str], rows: Iterable[Iterable[object]], title: str = "") -> str:
    """Render a simple ASCII table."""
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}"
    return str(cell)
