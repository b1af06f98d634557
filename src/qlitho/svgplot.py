"""Minimal deterministic SVG line charts (fixed 800x500 viewport), and the
number formatters of CSV and SVG output.

Hand-rolled so that identical data produces byte-identical files; no
plotting library is involved.  Each polyline is drawn at the plot's width
by M4 aggregation (Jugel, Jerzak, Hackenbroich and Markl, PVLDB 7(10),
797, 2014): of each run of consecutive points in one pixel column it keeps
the first and the last point and the first points of the lowest and the
highest y, at most 4 a run, each at 0.01 px.  A chart with at most two
points in every pixel column keeps every point; a denser one grows with
pixel columns x series, not with points.

Every cell is exactly the text that Python's ``%.17g`` (CSV cells, by
``format_rows``) or ``%.2f`` (chart pixels) prints for that float, made in
a few array passes over a block of cells instead of one ``%`` per cell.
For ``%.17g`` the kernel forms |v| 10^q as an error-free double-double
product (its error is below 1e-14 of a unit in the last printed place),
rounds it to the integer significand D, and takes a 32-byte record of
uint32 words from one table: "-0.", D's 4-digit groups, the exponent
(``e+XX`` or ``e+XXX``) and the separator.  Three uint64 masks chosen by
the cell's printf layout (sign, fixed or scientific form, digits through
the last nonzero one) keep each byte, move it one byte right to open the
decimal point, put a ".", or NUL it; joining the cells drops the NULs.
``%.2f`` sees only pixel coordinates, which lie in [40, 780].  A cell with
no sign bit below 9999.995 is two uint32 words taken from tables: its
integer part of at most four digits (leading zeros as NUL bytes, which
joining the cells drops) and ".cc" with the separator; the float product
v 100 < 10^6 decides the rounding, with an error below 1.2e-10.  Each
series formats its own kept (x, y) pixel pairs, a block at a time.
Three kinds of cell are formatted by ``%`` one at a time instead: a
non-finite value; a value outside the kernel's range (``%.17g``: nonzero
|v| outside [1e-280, 1e280); ``%.2f``: a set sign bit, or v >= 9999.995);
and a value whose |v| 10^q (for ``%.2f``, v 100) lies within 1e-6 of a
rounding tie, where the kernel cannot be sure which way ``%`` rounds.
"""

from __future__ import annotations

import functools
import math
import os
import sys

import numpy as np

from .dosing import _BLOCK_ELEMENTS

WIDTH = 800
HEIGHT = 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# An axis whose %.2f tick labels run wider than this many characters is
# labelled in %.3g, at most 10 characters, which fit left of the plot at font size 11.
_LABEL_CHARS = 9

# Cells per formatted block.  A %.17g cell holds up to about 36 float64
# elements of memory while its block is formatted (a %.2f cell about ten):
# a dozen per-cell numbers, its word indices, record and masks.
_BLOCK_CELLS = max(1, _BLOCK_ELEMENTS // 8)
# Decimal exponents of 10^q in the double-double table: 10^q * (2^27 + 1)
# stays finite and the low word of 10^q stays a normal float.
_Q_MIN, _Q_MAX = -270, 300
_SPLIT = float(2**27 + 1)  # Dekker's splitter: halves a float into 26-bit parts
_TIE_BAND = 1e-6

# A %.17g cell starts as a record of eight uint32 words, 32 bytes:
#   bytes  0-3   the head word "-0." NUL
#   bytes  4-23  "000" and the 17 digits of D, one word per 4-digit group
#   bytes 24-31  NUL "e", the exponent's sign and 3 digits, the separator, NUL
# Its layout (sign, form, digits kept) then keeps some bytes, moves some
# one byte right to open the decimal point, and NULs the rest.
_D0, _E, _SEP = 7, 25, 30  # the bytes of D's leading digit, of "e" and of the separator
_HEAD = 10000  # the head word's index in the word table, after the 4-digit groups
_EXP_MIN, _EXP_MAX = 16 - _Q_MAX, 17 - _Q_MIN  # decimal exponents the kernel prints
_FORMS = 23  # fixed form for exponents -4..16, then scientific with 2 and 3 exponent digits
# %.2f prints at most four integer digits for 0 <= v < 9999.995 (9999.996
# prints 10000.00), and there v 100 < 10^6, so the float product v 100 is
# within 2^-53 10^6 < 1.2e-10 < _TIE_BAND of the exact one.
_PIXEL_LIMIT = 9999.995


def _fmt(x: float) -> str:
    return f"{x:.2f}"


@functools.cache
def _digits4() -> np.ndarray:
    """ASCII digits of 0000..9999, each a uint32 whose 4 bytes are the digits."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    grid = np.meshgrid(digit, digit, digit, digit, indexing="ij")
    return np.stack(grid, axis=-1).reshape(10000, 4).view(np.uint32).ravel()


@functools.cache
def _pow10() -> np.ndarray:
    """Rows hi, head, tail and lo of 10^q for q = _Q_MIN.._Q_MAX.

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
    return np.array([hi, head, hi - head, lo])


def _round_scaled(a: np.ndarray, q):
    """(round(a 10^q), floor(a 10^q)) as int64, and whether a 10^q lies
    within _TIE_BAND of a rounding tie.

    ``a`` is non-negative and a 10^q below 2^62; Dekker's product of a and
    the hi word of 10^q is exact, so the fraction of a 10^q is known to
    about 1e-14.
    """
    hi, head, tail, lo = np.take(_pow10(), q - _Q_MIN, axis=1)
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


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """Tables of the %.17g kernel: the record words, the first layout key
    of each decimal exponent, the place of the last nonzero digit of each
    4-digit group, and the keep, move and put masks of each layout key.

    The words are _digits4, the head word at _HEAD, then bytes 24-27 and
    then bytes 28-31 of the record for each exponent _EXP_MIN.._EXP_MAX.
    A cell's layout key is 17 (_FORMS sign + form) plus the digits it
    keeps after D's leading one.  A mask row is the 32 record bytes, as
    little-endian uint64 words: a kept byte stays, a moved one takes the
    byte to its left, a put one is ".", and every other byte becomes NUL.
    """
    e = np.arange(_EXP_MIN, _EXP_MAX + 1)
    tail = np.zeros((len(e), 8), dtype=np.uint8)  # record bytes 24-31
    tail[:, 1] = ord("e")
    tail[:, 2] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 3:6] = _digits4().view(np.uint8).reshape(10000, 4)[np.abs(e), 1:]
    head = np.frombuffer(b"-0.\0", dtype=np.uint8).view(np.uint32)
    words = np.concatenate([_digits4(), head, tail.view(np.uint32).T.ravel()])
    form_keys = np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100)) * 17
    group = np.arange(10000)
    places = 4 - sum((group % m == 0).astype(np.int8) for m in (10, 100, 1000, 10000))
    places[0] = -16  # below every other group's place: 0000 keeps no digit
    sign, form, n, b = np.ix_(range(2), range(_FORMS), range(1, 18), range(32))
    fixed = form < 21
    x = np.where(fixed, form - 4, 0)  # x >= 0: integer digits after D's leading one
    below = x < 0  # "0.", then -x - 1 zeros before D's digits
    point = ~below & (n > x + 1)
    keep = (b == 0) & (sign == 1) | (b == _SEP) | ~below & (b >= _D0) & (b <= _D0 + x)
    keep = keep | below & ((b == 1) | (b == 2) | (b > _D0 + x) & (b < _D0 + n))
    keep = keep | ~fixed & (b >= _E) & (b < _SEP) & ((b != _E + 2) | (form == _FORMS - 1))
    move = point & (b >= _D0 + x + 2) & (b <= _D0 + n)
    put = np.where(point & (b == _D0 + x + 1), ord("."), 0)
    masks = [np.broadcast_to(m, keep.shape).astype(np.uint8).reshape(-1, 32).view("<u8")
             for m in (keep * 255, move * 255, put)]
    return words, form_keys, places, *masks


@functools.cache
def _pixel_words() -> tuple[np.ndarray, np.ndarray]:
    """Tables of the two uint32 words of a %.2f cell, NUL standing for no
    byte: the integer part 0..9999 without leading zeros ("0" for 0), and
    ".cc" followed by a NUL for the separator."""
    digits = _digits4().view(np.uint8).reshape(10000, 4)
    integer = np.where(np.logical_and.accumulate(digits == ord("0"), axis=1), 0, digits)
    integer[0, 3] = ord("0")
    cents = np.zeros((100, 4), dtype=np.uint8)
    cents[:, 0], cents[:, 1:3] = ord("."), digits[:100, 2:]
    return integer.view(np.uint32).ravel(), cents.view(np.uint32).ravel()


def _with_percent(text: np.ndarray, v: np.ndarray, fallback: np.ndarray, spec: str, seps: str) -> np.ndarray:
    """Write each ``fallback`` cell of ``v``, which the kernel leaves out,
    by Python's ``%`` into ``text`` (one NUL-padded row a cell, widened
    where a cell needs it); return one row per block row of len(seps) cells."""
    k = len(seps)
    width = text.shape[1]
    for i in np.flatnonzero(fallback):
        cell = np.frombuffer((spec % float(v[i]) + seps[i % k]).encode("ascii"), dtype=np.uint8)
        if len(cell) > width:
            text = np.pad(text, ((0, 0), (0, len(cell) - width)))
            width = len(cell)
        text[i] = 0
        text[i, :len(cell)] = cell
    return text.reshape(-1, k * width)


def _text(values: np.ndarray, seps: str) -> np.ndarray:
    """The cells ``"%.17g" % v + sep`` of a (rows, k) block, as a NUL-padded
    uint8 matrix with one row per block row.

    ``seps`` holds the one-character separator that follows each of the k
    columns.
    """
    rows, k = values.shape
    v = values.ravel()
    a = np.abs(v)
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
    words, form_keys, places, keep, move, put = _g17_tables()
    e = exp10 - _EXP_MIN
    index = np.empty((len(v), 8), dtype=np.intp)  # the words of each record
    index[:, 0] = _HEAD
    kept = np.zeros(len(v), dtype=np.int8)  # digits kept after D's leading one
    for j in (5, 4, 3, 2):
        high = d // 10**4
        group = d - high * 10**4
        index[:, j] = group
        np.maximum(kept, places[group] + 4 * (j - 2), out=kept)
        d = high
    index[:, 1] = d
    index[:, 6] = e + (_HEAD + 1)
    index[:, 7] = e + (_HEAD + 1 + len(form_keys))
    record = np.take(words, index)
    del index
    text = record.view(np.uint8)
    text.reshape(rows, k, 32)[:, :, _SEP] = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    key = form_keys[e] + kept + np.signbit(v) * (len(keep) // 2)
    r = record.view("<u8").ravel()
    moved = r << 8  # each byte takes the byte to its left (byte 0 is never moved)
    moved[1:] |= r[:-1] >> 56
    moved &= np.take(move, key, axis=0).ravel()
    r &= np.take(keep, key, axis=0).ravel()
    r |= moved
    r |= np.take(put, key, axis=0).ravel()
    return _with_percent(text, v, ~(fast | zero) | tie, "%.17g", seps)


def _pixels(values: np.ndarray, seps: str) -> np.ndarray:
    """The cells ``"%.2f" % v + sep`` of a (rows, k) block, as a NUL-padded
    uint8 matrix with one row per block row.

    A cell with no sign bit below _PIXEL_LIMIT is two words: its integer
    part and ".cc" with the separator.  ``seps`` is as for ``_text``.
    """
    v = values.ravel()
    fast = (v < _PIXEL_LIMIT) & ~np.signbit(v)
    p = np.where(fast, v, 0.0) * 100.0
    whole = np.floor(p)
    frac = p - whole
    d = whole.astype(np.int64) + (frac > 0.5)  # round(v 100)
    integer = d // 100  # np.divmod takes twice as long
    integer_words, cent_words = _pixel_words()
    text = np.column_stack([integer_words[integer], cent_words[d - 100 * integer]]).view(np.uint8)
    text.reshape(len(values), len(seps), 8)[:, :, 7] = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    return _with_percent(text, v, ~fast | (np.abs(frac - 0.5) < _TIE_BAND), "%.2f", seps)


def _join(text: np.ndarray) -> str:
    """The bytes of a NUL-padded text matrix, row by row."""
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _blocks(n_rows: int, n_columns: int):
    step = max(1, _BLOCK_CELLS // n_columns)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def format_rows(columns):
    """Yield the rows of equal-length float columns as CSV text, a block at a time.

    Each cell is exactly ``"%.17g" % v``; cells are joined by "," and each
    row ends with a newline.
    """
    seps = "," * (len(columns) - 1) + "\n"
    for block in _blocks(len(columns[0]), len(columns)):
        yield _join(_text(np.column_stack([col[block] for col in columns]), seps))


def _column_extremes(y, bounds) -> np.ndarray:
    """Which points of ``y`` M4 keeps, as a boolean mask: of each run of
    points from one index of ``bounds`` to the next, its first and last
    point and the first points that hold its smallest and its largest
    value."""
    starts = bounds[:-1]
    lengths = np.diff(bounds)
    keep = np.zeros(len(y), dtype=bool)
    keep[starts] = keep[bounds[1:] - 1] = True
    index = np.arange(len(y))
    for extreme in (np.minimum, np.maximum):
        hit = y == np.repeat(extreme.reduceat(y, starts), lengths)
        keep[np.minimum.reduceat(np.where(hit, index, len(y)), starts)] = True
    return keep


def _polylines(x, ys, sx, sy) -> list[list[str]]:
    """The points attribute of each series' polyline, as the texts of its
    blocks of points.

    The points split into runs of consecutive points whose x pixel
    ``sx(x)`` has the same integer part, in any x order.  Each run keeps its
    first point, its last point, and the first points that hold its
    smallest and its largest y, in their order, so a run of one or two
    points keeps every point.  The runs are selected a block of about
    ``_BLOCK_CELLS`` points at a time, and only the kept points are mapped
    by ``sy`` and formatted, a block at a time.
    """
    px = sx(x)
    column = np.floor(px)
    # bound[i]: a run starts at point i, or i is len(x), where the last run ends.
    bound = np.concatenate(([True], column[1:] != column[:-1], [True]))
    starts = np.flatnonzero(bound)
    # Each block of runs begins with the first run that starts in its block
    # of points.  Not np.unique: it imports numpy.ma, 1.7 MB of resident memory.
    firsts = starts[np.searchsorted(starts, [*range(0, len(x), _BLOCK_CELLS), len(x)])]
    edges = list(dict.fromkeys(firsts.tolist()))
    del column, starts
    polylines = []
    for y in ys:
        keep = np.zeros(len(x), dtype=bool)
        for lo, hi in zip(edges[:-1], edges[1:]):
            # y is finite and sy monotone, so the extremes of y are those of its pixels.
            keep[lo:hi] = _column_extremes(y[lo:hi], np.flatnonzero(bound[lo:hi + 1]))
        kept = np.flatnonzero(keep)
        out = [_join(_pixels(np.column_stack([px[k], sy(y[k])]), ", "))
               for k in (kept[b] for b in _blocks(len(kept), 2))]
        out[-1] = out[-1][:-1]  # no separator after the last point
        polylines.append(out)
    return polylines


def _escape(text: str) -> str:
    """``text`` as XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(lo: float, hi: float) -> tuple[float, float]:
    """Axis limits of data in [lo, hi], widened if constant: to [lo, lo + 1],
    or, where lo + 1 rounds to lo, by |lo| 2^-20 towards zero."""
    if hi == lo and lo + 1.0 == lo:
        return (lo - lo * 2.0**-20, lo) if lo > 0 else (lo, lo - lo * 2.0**-20)
    return lo, lo + 1.0 if hi == lo else hi


def _chart_parts(x, series, title: str) -> list[str]:
    """The SVG text of a chart as consecutive parts, each polyline's points one part."""
    x = np.asarray(x, dtype=float)
    if len(series) == 0:
        raise ValueError("need at least one series")
    ys = [np.asarray(v, dtype=float) for _, v in series]
    for y in ys:
        if y.shape != x.shape:
            raise ValueError("series length does not match x")
    if not (np.isfinite(x).all() and all(np.isfinite(y).all() for y in ys)):
        raise ValueError("chart data must be finite")
    x_lo, x_hi = _span(float(x.min()), float(x.max()))
    y_lo, y_hi = _span(min(float(y.min()) for y in ys), max(float(y.max()) for y in ys))
    pad = 0.05 * (y_hi - y_lo)  # held inside the floats next to the largest ones
    y_lo, y_hi = max(y_lo - pad, -sys.float_info.max), min(y_hi + pad, sys.float_info.max)
    # An axis whose span overflows maps halved values between halved limits.
    # Halving is exact for normal floats, so other charts keep their bytes;
    # halving every axis would zero a span of subnormals.
    x_h = 0.5 if x_hi - x_lo == math.inf else 1.0
    y_h = 0.5 if y_hi - y_lo == math.inf else 1.0
    x_lo, x_hi, y_lo, y_hi = x_lo * x_h, x_hi * x_h, y_lo * y_h, y_hi * y_h

    plot_w = WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v * x_h - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (y_hi - v * y_h) / (y_hi - y_lo) * plot_h

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
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>\n'
        )

    n_ticks = 5

    def ticks(lo, hi, h):
        """n_ticks values from lo to hi in data units, and their labels: %.2f,
        or %.3g on an axis where a %.2f label would overrun _LABEL_CHARS.  A
        sum of halved limits may round past the float range when doubled."""
        values = [min((lo + (hi - lo) * (i / (n_ticks - 1))) / h, sys.float_info.max)
                  for i in range(n_ticks)]
        labels = [_fmt(v) for v in values]
        if max(map(len, labels)) > _LABEL_CHARS:
            # Above 1.795e308, %.3g rounds to 1.8e+308, which reads back as inf.
            labels = [f"{min(max(v, -1.79e308), 1.79e308):.3g}" for v in values]
        return zip(values, labels)

    for (tx, x_label), (ty, y_label) in zip(ticks(x_lo, x_hi, x_h), ticks(y_lo, y_hi, y_h)):
        px = sx(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{_fmt(px)}" y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_label}</text>\n'
        )
        py = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" '
            f'x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="#333333"/>\n'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_label}</text>\n'
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
        # Each block of points is a part of its own, so it is never copied.
        parts += ['<polyline points="', *pts,
                  f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n']
        ly = _MARGIN_T + 16 + 16 * s_idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(str(label))}</text>\n'
        )
    parts.append("</svg>\n")
    return parts


def render_line_chart(x, series, title: str = "") -> str:
    """Return the SVG text for one or more labelled series over x.

    ``series`` is a list of (label, values) pairs; all values share the
    x vector, and every value must be finite (``ValueError`` otherwise).
    Axis limits are padded data limits; ticks are plain decimals so output
    never depends on locale: ``%.2f``, or ``%.3g`` on an axis where a
    ``%.2f`` label would run past 9 characters.  Each polyline keeps at most
    4 points of each run of points in one pixel column (see ``_polylines``).
    """
    return "".join(_chart_parts(x, series, title))


def write_line_chart(path, x, series, title: str = "") -> None:
    """Write the chart of render_line_chart to ``path``, one part at a time."""
    _write_text(path, _chart_parts(x, series, title))


def _write_text(path, parts) -> None:
    """Write the ASCII strings ``parts`` to ``path`` over its old bytes, then
    cut the file at the end of what was written, also when a write fails.

    The file is opened as open(path, "w") opens it (created 0o666 less the
    umask, symlinks followed, the same inode kept, no newline translation)
    but without O_TRUNC: a file cut to zero and written again is flushed
    to disk at close on some file systems (ext4's auto_da_alloc), one
    overwritten in place is not.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "w", encoding="ascii", newline="\n", closefd=False) as fh:
            fh.writelines(parts)
    finally:
        try:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)
