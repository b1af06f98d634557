"""Minimal deterministic SVG line charts (fixed 800x500 viewport).

Hand-rolled so that identical data produces byte-identical files; no
plotting library is involved.  Each polyline carries every data point
at 0.01 px, so a file grows with points x series.
"""

from __future__ import annotations

import numpy as np

from .dosing import _BLOCK_ELEMENTS

WIDTH = 800
HEIGHT = 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def format_rows(columns, row_format: str):
    """Yield the rows of equal-length float columns formatted by ``row_format``.

    One string per block of rows, made by one ``%``.  A formatted cell holds
    about eight float64 elements of memory (a float, a list and a tuple slot,
    its text), so a block has at most _BLOCK_ELEMENTS / 8 cells.
    """
    step = max(1, _BLOCK_ELEMENTS // (8 * len(columns)))
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([col[start:start + step] for col in columns])
        yield (row_format * len(block)) % tuple(block.ravel().tolist())


def render_line_chart(x, series, title: str = "", x_label: str = "phi", y_label: str = "dose") -> str:
    """Return the SVG text for one or more labelled series over x.

    ``series`` is a list of (label, values) pairs; all values share the
    x vector.  Axis limits are padded data limits; ticks are plain
    decimals so output never depends on locale.
    """
    x = np.asarray(x, dtype=float)
    if len(series) == 0:
        raise ValueError("need at least one series")
    ys = [np.asarray(v, dtype=float) for _, v in series]
    for y in ys:
        if y.shape != x.shape:
            raise ValueError("series length does not match x")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    n_ticks = 5
    for i in range(n_ticks):
        tx = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        px = sx(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{_fmt(px)}" y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
        ty = y_lo + (y_hi - y_lo) * i / (n_ticks - 1)
        py = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" '
            f'x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{y_label}</text>'
    )

    for s_idx, ((label, _), y) in enumerate(zip(series, ys)):
        color = _COLORS[s_idx % len(_COLORS)]
        pts = "".join(format_rows((sx(x), sy(y)), "%.2f,%.2f "))[:-1]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * s_idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_chart(path, x, series, title: str = "", x_label: str = "phi", y_label: str = "dose") -> None:
    text = render_line_chart(x, series, title=title, x_label=x_label, y_label=y_label)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
