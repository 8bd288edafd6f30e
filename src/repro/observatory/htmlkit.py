"""Shared building blocks for self-contained HTML reports.

Both the observatory report (:mod:`repro.observatory.report`) and the
campaign control room (:mod:`repro.parallel.console`) render the same
way: one inline stylesheet, no scripts, no external assets — a file that
can be attached to a CI run or opened offline.  This module holds the
pieces they share: the base CSS, the colour tables, the page frame, the
labelled timeline-bar row, and a pure-div column chart for series.
"""

from __future__ import annotations

import html as _html
from typing import Iterable, Optional, Sequence

SEVERITY_COLOURS = {"info": "#4c78a8", "warning": "#e8a838",
                    "critical": "#d62f2f"}
CLASS_COLOURS = {"cpu": "#4c78a8", "network": "#59a14f",
                 "disk": "#e8a838", "nfs": "#b07aa1", "wait": "#bab0ac"}

#: The shared stylesheet (one string per rule, joined without spaces).
BASE_CSS: tuple[str, ...] = (
    "body{font:13px/1.5 -apple-system,Segoe UI,sans-serif;"
    "margin:2em;color:#222;max-width:70em}",
    "h1{font-size:1.3em}h2{font-size:1.05em;margin-top:1.6em}",
    ".row{display:flex;align-items:center;margin:2px 0}",
    ".lbl{flex:0 0 22em;overflow:hidden;text-overflow:ellipsis;"
    "white-space:nowrap;font-family:ui-monospace,monospace;"
    "font-size:11px;padding-right:.6em}",
    ".lane{position:relative;flex:1;height:14px;"
    "background:#f4f4f4;border-radius:3px}",
    ".bar{position:absolute;top:1px;bottom:1px;border-radius:2px;"
    "min-width:2px}",
    "table{border-collapse:collapse;margin-top:.5em}",
    "td,th{border:1px solid #ddd;padding:3px 8px;"
    "text-align:right;font-size:12px}",
    "td:first-child,th:first-child,td:nth-child(2),"
    "th:nth-child(2){text-align:left;"
    "font-family:ui-monospace,monospace}",
    ".meta{color:#666}",
    ".chart{display:flex;align-items:flex-end;gap:1px;height:64px;"
    "background:#f8f8f8;border-radius:3px;padding:2px;flex:1}",
    ".col{flex:1;min-width:1px;border-radius:1px 1px 0 0}",
)


def page(title: str, body_parts: Iterable[str]) -> str:
    """Wrap body fragments in the shared self-contained page frame."""
    return "".join((
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title><style>",
        *BASE_CSS,
        "</style></head><body>",
        *body_parts,
        "</body></html>",
    ))


def bar_row(label: str, left_pct: float, width_pct: float,
            colour: str) -> str:
    """One labelled timeline lane with a single positioned bar."""
    return (f'<div class="row"><span class="lbl">'
            f'{_html.escape(label)}</span>'
            f'<span class="lane"><span class="bar" style="left:'
            f'{left_pct:.2f}%;width:{max(width_pct, 0.15):.2f}%;'
            f'background:{colour}"></span></span></div>')


def timeline_bar(t0: float, t1: float, start: float, total: float,
                 colour: str, label: str) -> str:
    """A :func:`bar_row` positioned on a [start, start+total] axis."""
    total = max(total, 1e-9)
    left = 100.0 * (t0 - start) / total
    width = 100.0 * (t1 - t0) / total
    return bar_row(label, left, width, colour)


def column_chart(label: str, values: Sequence[float], colour: str,
                 ceiling: Optional[float] = None) -> str:
    """A labelled pure-div column chart (heights scaled to the max).

    With ``ceiling`` set, columns exceeding it render in red — the
    RSS-vs-ceiling view.
    """
    peak = max([v for v in values if v is not None] + [1e-9])
    if ceiling is not None:
        peak = max(peak, ceiling)
    cols = []
    for v in values:
        if v is None:
            cols.append('<span class="col" style="height:0"></span>')
            continue
        h = max(1.0, 100.0 * v / peak)
        c = "#d62f2f" if ceiling is not None and v > ceiling else colour
        cols.append(f'<span class="col" style="height:{h:.1f}%;'
                    f'background:{c}"></span>')
    return (f'<div class="row"><span class="lbl">'
            f'{_html.escape(label)}</span>'
            f'<span class="chart">{"".join(cols)}</span></div>')
