"""Minimal deterministic SVG line charts (fixed 800x500 viewport), and the
number formatter that CSV and SVG output share.

Hand-rolled so that identical data produces byte-identical files; no
plotting library is involved.  Each polyline carries every data point
at 0.01 px, so a file grows with points x series.

Every cell is exactly the text that Python's ``%.17g`` (CSV) or ``%.2f``
(SVG coordinates) prints for that float, made in a few array passes over a
block of rows instead of one ``%`` per cell.  The kernel forms |v| 10^q as
an error-free double-double product (its error is below 1e-14 of a unit
in the last printed place), rounds it to the integer significand D, writes
D's digits from a table of 4-digit groups, and gathers them into place by
the printf rules: sign, fixed or scientific form, trailing zeros
stripped, ``e+XX`` or ``e+XXX``.  Three kinds of cell are formatted by
``%`` one at a time instead: a non-finite value; a value outside the
double-double range (``%.17g``: nonzero |v| outside [1e-280, 1e280);
``%.2f``: |v| >= 1e15); and a value whose |v| 10^q lies within 1e-6 of a
rounding tie, where the kernel cannot be sure which way ``%`` rounds.
On a 2-CPU guest, a traced ``cli_sweep`` pass (``python3 perfbench/run.py
--workload cli_sweep --seed 1 --seconds 25 --trace 1``) spends 0.224 s in
CSV and 0.139 s in SVG output, against 0.583 s and 0.322 s with one ``%``
per cell.
"""

from __future__ import annotations

import functools

import numpy as np

from .dosing import _BLOCK_ELEMENTS

WIDTH = 800
HEIGHT = 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

# Cells per formatted block.  A %.17g cell holds up to about 36 float64
# elements of memory while its block is formatted (a %.2f cell half that):
# a dozen per-cell numbers, its digits, source bytes and text.  The gather
# indices, 8 bytes a text byte, are formed for at most _BLOCK_ELEMENTS text
# bytes at a time.
_BLOCK_CELLS = max(1, _BLOCK_ELEMENTS // 8)
# Decimal exponents of 10^q in the double-double table: 10^q * (2^27 + 1)
# stays finite and the low word of 10^q stays a normal float.
_Q_MIN, _Q_MAX = -270, 300
_SPLIT = float(2**27 + 1)  # Dekker's splitter: halves a float into 26-bit parts
_TIE_BAND = 1e-6

# Columns of a cell's source bytes, which the layouts index: the text of a
# cell is its source bytes gathered in layout order, NUL-padded.
_MINUS, _DIGIT0, _POINT, _ZERO, _E, _EXP_SIGN, _EXP0, _SEP, _NUL = 0, 1, 18, 19, 20, 21, 22, 25, 26
_SOURCE = np.frombuffer(b"-" + b"0" * 17 + b".0e+000,\0", dtype=np.uint8)
_LAYOUT_WIDTH = 32  # the longest cell, with sign and separator, is 25 bytes
_POW10_INT = 10 ** np.arange(1, 17, dtype=np.int64)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


@functools.cache
def _digits4() -> np.ndarray:
    """ASCII digits of 0000..9999, each a uint32 whose 4 bytes are the digits."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    grid = np.meshgrid(digit, digit, digit, digit, indexing="ij")
    return np.stack(grid, axis=-1).reshape(10000, 4).view(np.uint32).ravel()


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, head, tail, lo) of 10^q for q = _Q_MIN.._Q_MAX.

    hi + lo equals 10^q to about 2^-106 relative (hi correctly rounded, lo
    the rounded remainder, both from exact integer arithmetic), and
    head + tail = hi splits hi into two 26-bit halves.
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    c = hi * _SPLIT
    head = c - (c - hi)
    return hi, head, hi - head, np.array(lo)


def _round_scaled(a: np.ndarray, q):
    """(round(a 10^q), floor(a 10^q)) as int64, and whether a 10^q lies
    within _TIE_BAND of a rounding tie.

    ``a`` is non-negative and a 10^q below 2^62; Dekker's product of a and
    the hi word of 10^q is exact, so the fraction of a 10^q is known to
    about 1e-14.
    """
    hi, head, tail, lo = (table[q - _Q_MIN] for table in _pow10())
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    p = a * hi
    r = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    whole = np.floor(p)
    s = (p - whole) + r
    carry = np.floor(s)
    frac = s - carry
    floor = whole.astype(np.int64) + carry.astype(np.int64)
    return floor + (frac > 0.5), floor, np.abs(frac - 0.5) < _TIE_BAND


def _digits17(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each integer 0 <= d < 10^17, zero-padded."""
    chunks = np.empty((len(d), 5), dtype=np.int64)
    for j in (4, 3, 2, 1):
        high = d // 10**4
        chunks[:, j] = d - high * 10**4
        d = high
    chunks[:, 0] = d
    return _digits4()[chunks].view(np.uint8)[:, 3:]


def _layout_table(bodies) -> tuple[np.ndarray, np.ndarray]:
    """Layout rows (the unsigned bodies, then the signed) and their lengths.

    A row lists the source columns of a cell's text and its separator,
    NUL-padded to _LAYOUT_WIDTH.
    """
    rows = [body + [_SEP] for body in bodies]
    rows += [[_MINUS] + row for row in rows]
    index = np.full((len(rows), _LAYOUT_WIDTH), _NUL, dtype=np.intp)
    for i, row in enumerate(rows):
        index[i, :len(row)] = row
    return index, np.array([len(row) for row in rows])


@functools.cache
def _layouts_g17() -> tuple[np.ndarray, np.ndarray]:
    """Layouts of %.17g: fixed form for exponents -4..16, then scientific
    with a 2- and a 3-digit exponent; each for 1..17 significant digits."""
    digits = [_DIGIT0 + i for i in range(17)]
    bodies = []
    for x in range(-4, 17):
        for n in range(1, 18):
            if x >= 0:
                fraction = digits[x + 1:n]
                bodies.append(digits[:x + 1] + ([_POINT] + fraction if fraction else []))
            else:
                bodies.append([_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits[:n])
    for width in (2, 3):
        for n in range(1, 18):
            mantissa = digits[:1] + ([_POINT] + digits[1:n] if n > 1 else [])
            bodies.append(mantissa + [_E, _EXP_SIGN] + list(range(_EXP0 + 3 - width, _EXP0 + 3)))
    return _layout_table(bodies)


@functools.cache
def _layouts_f2() -> tuple[np.ndarray, np.ndarray]:
    """Layouts of %.2f for 1..15 integer digits."""
    return _layout_table(
        [list(range(_DIGIT0 + 15 - m, _DIGIT0 + 15)) + [_POINT, _DIGIT0 + 15, _DIGIT0 + 16]
         for m in range(1, 16)]
    )


def _percent(spec: str, value: float, sep: str) -> bytes:
    """One cell formatted by Python's ``%``: the path of the cells the
    kernel leaves out."""
    return (spec % value + sep).encode("ascii")


def _text(values: np.ndarray, spec: str, seps: str) -> np.ndarray:
    """The cells ``spec % v + sep`` of a (rows, k) block, as a NUL-padded
    uint8 matrix with one row per block row.

    ``spec`` is ``"%.17g"`` or ``"%.2f"``; ``seps`` holds the one-character
    separator that follows each of the k columns.
    """
    rows, k = values.shape
    v = values.ravel()
    a = np.abs(v)
    source = np.empty((rows, k, len(_SOURCE)), dtype=np.uint8)
    source[:] = _SOURCE
    source[:, :, _SEP] = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    source = source.reshape(len(v), len(_SOURCE))
    if spec == "%.17g":
        zero = a == 0.0
        fast = (a >= 1e-280) & (a < 1e280)
        scaled = np.where(fast, a, 1.0)
        exp10 = np.floor(np.log10(scaled)).astype(np.int64)
        d, floor, tie = _round_scaled(scaled, 16 - exp10)
        # log10 may miss by one next to a power of ten: move q until
        # 10^16 <= |v| 10^q < 10^17; a rounding up to 10^17 then carries.
        off = (floor >= 10**17).astype(np.int64) - (floor < 10**16)
        redo = np.flatnonzero(off)
        if len(redo):
            exp10[redo] += off[redo]
            d[redo], _, tie[redo] = _round_scaled(scaled[redo], 16 - exp10[redo])
        carry = d == 10**17
        exp10 += carry
        d[carry] = 10**16
        d[zero] = 0
        exp10[zero] = 0
        fallback = ~(fast | zero) | tie
        digits = _digits17(d)
        source[:, _DIGIT0:_DIGIT0 + 17] = digits
        source[:, _EXP_SIGN] = np.where(exp10 < 0, ord("-"), ord("+"))
        source[:, _EXP0:_EXP0 + 3] = _digits4()[np.abs(exp10)].view(np.uint8).reshape(-1, 4)[:, 1:]
        significant = digits != ord("0")
        significant[:, 0] = True
        n_sig = 17 - np.argmax(significant[:, ::-1], axis=1)
        fixed = (exp10 >= -4) & (exp10 < 17)
        key = np.where(fixed, (exp10 + 4) * 17, 21 * 17 + 17 * (np.abs(exp10) >= 100)) + n_sig - 1
        layouts, lengths = _layouts_g17()
    elif spec == "%.2f":
        fast = a < 1e15
        d, _, tie = _round_scaled(np.where(fast, a, 0.0), 2)
        fallback = ~fast | tie
        source[:, _DIGIT0:_DIGIT0 + 17] = _digits17(d)
        int_digits = np.maximum(np.searchsorted(_POW10_INT, d, side="right") - 1, 1)  # of d / 100
        key = int_digits - 1
        layouts, lengths = _layouts_f2()
    else:
        raise ValueError(f"unsupported format {spec!r}")
    key += np.signbit(v) * (len(layouts) // 2)
    width = int(lengths[key].max())
    text = np.empty((len(v), width), dtype=np.uint8)
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, len(v), step):
        index = layouts[key[start:start + step], :width]
        index += np.arange(start, start + len(index))[:, None] * source.shape[1]
        text[start:start + step] = source.ravel()[index]
    for i in np.flatnonzero(fallback):
        cell = np.frombuffer(_percent(spec, float(v[i]), seps[i % k]), dtype=np.uint8)
        if len(cell) > width:
            text = np.pad(text, ((0, 0), (0, len(cell) - width)))
            width = len(cell)
        text[i] = 0
        text[i, :len(cell)] = cell
    return text.reshape(rows, k * width)


def _join(texts) -> str:
    """The bytes of side-by-side NUL-padded text matrices, row by row."""
    text = np.concatenate(texts, axis=1) if len(texts) > 1 else texts[0]
    return text[text != 0].tobytes().decode("ascii")


def _blocks(n_rows: int, n_columns: int):
    step = max(1, _BLOCK_CELLS // n_columns)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def format_rows(columns, spec: str):
    """Yield the rows of equal-length float columns as CSV text, a block at a time.

    Each cell is exactly ``spec % v`` (``spec`` is ``"%.17g"`` or
    ``"%.2f"``); cells are joined by "," and each row ends with a newline.
    """
    seps = "," * (len(columns) - 1) + "\n"
    for block in _blocks(len(columns[0]), len(columns)):
        yield _join([_text(np.column_stack([col[block] for col in columns]), spec, seps)])


def _polylines(x, ys, sx, sy) -> list[str]:
    """The points attribute of each series' polyline: pixels ``sx(x)``, ``sy(y)``.

    Pixels are formed a block at a time, and a block's x cells are
    formatted once for every series.
    """
    points = [[] for _ in ys]
    for block in _blocks(len(x), 1 + len(ys)):
        x_text = _text(sx(x[block])[:, None], "%.2f", ",")
        y_text = _text(np.column_stack([sy(y[block]) for y in ys]), "%.2f", " " * len(ys))
        width = y_text.shape[1] // len(ys)
        for s, out in enumerate(points):
            out.append(_join([x_text, y_text[:, s * width:(s + 1) * width]]))
    polylines = []
    for out in points:
        out[-1] = out[-1][:-1]  # no separator after the last point
        polylines.append("".join(out))
        out.clear()
    return polylines


def _chart_parts(x, series, title: str) -> list[str]:
    """The SVG text of a chart as consecutive parts, each polyline's points one part."""
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
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>\n',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>\n'
        )

    n_ticks = 5
    for i in range(n_ticks):
        tx = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        px = sx(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{_fmt(px)}" y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>\n'
        )
        ty = y_lo + (y_hi - y_lo) * i / (n_ticks - 1)
        py = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" '
            f'x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="#333333"/>\n'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>\n'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">phi</text>\n'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">dose</text>\n'
    )

    for s_idx, ((label, _), pts) in enumerate(zip(series, _polylines(x, ys, sx, sy))):
        color = _COLORS[s_idx % len(_COLORS)]
        # The points text is a part of its own, so it is never copied.
        parts += ['<polyline points="', pts,
                  f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n']
        ly = _MARGIN_T + 16 + 16 * s_idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>\n'
        )
    parts.append("</svg>\n")
    return parts


def render_line_chart(x, series, title: str = "") -> str:
    """Return the SVG text for one or more labelled series over x.

    ``series`` is a list of (label, values) pairs; all values share the
    x vector.  Axis limits are padded data limits; ticks are plain
    decimals so output never depends on locale.
    """
    return "".join(_chart_parts(x, series, title))


def write_line_chart(path, x, series, title: str = "") -> None:
    """Write the chart of render_line_chart to ``path``, one part at a time."""
    parts = _chart_parts(x, series, title)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(parts)
