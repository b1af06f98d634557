"""Tests of the SVG line-chart writer."""

import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chart_pixels, polyline_points
from qlitho import svgplot
from qlitho.svgplot import format_rows, render_line_chart, write_line_chart

# Points per formatted block of a polyline: each point is the two cells x
# and y, and every series formats its own points.
_BLOCK = svgplot._BLOCK_CELLS // 2

_SPECS = ("%.17g", "%.2f")
# Doubles whose %.17g rounding is a tie, or within 1e-6 of one (found by
# a search over random doubles, checked with exact decimal arithmetic).
_G17_TIES = [float.fromhex("0x1.ca83050d5c6fep+49"), float.fromhex("0x1.7680e6ebc67e5p-52")]


def _by_formatter(columns, spec):
    """``columns`` as rows of cells joined by "," and LF: by format_rows for
    %.17g, and by the chart's pixel formatter for %.2f."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    if spec == "%.17g":
        return "".join(format_rows(columns))
    return svgplot._join(svgplot._pixels(np.column_stack(columns), "," * (len(columns) - 1) + "\n"))


def _by_percent(columns, spec):
    return "".join(",".join(spec % v for v in row) + "\n" for row in zip(*columns))


def _edge_values():
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = powers + list(np.nextafter(powers, 0.0)) + list(np.nextafter(powers, np.inf))
    values += [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, float(2**53 + 1),
        float(2**53 + 2), 9.9999999999999998e-17, 0.1, 0.125, 2.675, 0.005, 1.005, 0.995,
        1e15, np.nextafter(1e15, 0.0), 1e280, np.nextafter(1e280, 0.0), 1e-280,
        np.nextafter(1e-280, 0.0), np.nan, np.inf, *_G17_TIES,
    ]
    return [float(v) for v in values] + [-float(v) for v in values]


@pytest.mark.parametrize("spec", _SPECS)
def test_formatter_matches_percent_on_edge_values(spec):
    values = _edge_values()
    assert _by_formatter([values], spec) == _by_percent([values], spec)


def _g17_layout(text):
    """(sign, form, significant digits) of a %.17g text: form 0..20 is
    the fixed form of decimal exponents -4..16, 21 and 22 the scientific
    form with a 2- and a 3-digit exponent."""
    sign = text.startswith("-")
    body = text.lstrip("-")
    if "e" in body:
        mantissa, exponent = body.split("e")
        return sign, 18 + len(exponent), len(mantissa.replace(".", ""))
    whole, _, fraction = body.partition(".")
    digits = (whole + fraction).strip("0")
    if not digits:
        return sign, 4, 1
    x = len(whole) - 1 if whole != "0" else -1 - (len(fraction) - len(fraction.lstrip("0")))
    return sign, x + 4, len(digits)


def test_formatter_matches_percent_on_every_g17_layout():
    # Cells of every layout the %.17g kernel selects, so every row of its
    # mask tables is used: both signs; the fixed form at exponents -4..16
    # and the scientific form with 2- and 3-digit exponents of either
    # sign; each with 1..17 significant digits.  n-digit texts come from
    # m 10^j for an n-digit m (wherever the nearest double prints as
    # m 10^j), from dyadic fractions and 10^x + 2^-p, whose decimals end,
    # and 17-digit ones from the largest doubles below powers of ten.
    powers = [float(f"1e{k}") for k in range(-280, 280)]
    values = powers + list(np.nextafter(powers, 0.0)) + [0.0]
    values += [float(f"{10 ** (n - 1) + 2}e{j}") for n in range(1, 18) for j in range(-296, 281 - n)]
    values += [float(f"{10 ** (n - 1) + r}e{j}") for n in range(1, 18) for r in range(2, 40, 3)
               for j in range(-n - 3, 2 - n)]
    values += [2.0**-p for p in range(1, 60)] + [10.0**x + 2.0**-p for x in range(16) for p in range(1, 17 - x)]
    values = [v for v in values if v == 0.0 or 1e-280 <= v < 1e280]
    values += [-v for v in values]
    layouts = {_g17_layout("%.17g" % v) for v in values}
    assert layouts == {(sign, form, n) for sign in (False, True) for form in range(23) for n in range(1, 18)}
    assert _by_formatter([values], "%.17g") == _by_percent([values], "%.17g")


def test_formatter_tables_are_built_on_first_use():
    # A fresh import of the package and the CLI's parser build none of the
    # formatters' tables, so the CLI's start-up does not pay for them.
    code = (
        "import qlitho, qlitho.cli\n"
        "qlitho.cli.build_parser()\n"
        "from qlitho import svgplot\n"
        "tables = {name: f for name, f in vars(svgplot).items() if hasattr(f, 'cache_info')}\n"
        "print(sorted(tables), sorted(name for name, f in tables.items() if f.cache_info().currsize))\n"
    )
    src = str(Path(svgplot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['_digits4', '_g17_tables', '_pixel_words', '_pow10'] []"


@pytest.mark.parametrize("miss", [-1.0, 1.0])
def test_g17_exponent_estimate_is_corrected_either_way(monkeypatch, miss):
    # The decimal exponent comes from log10, which may round across an
    # integer next to a power of ten; a miss by one either way is corrected.
    # Values away from powers of ten, where log10 itself does not miss.
    rng = np.random.default_rng(3)
    values = list(rng.uniform(1.5, 9.5, 2000) * 10.0 ** rng.integers(-280, 280, 2000))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
    assert _by_formatter([values], "%.17g") == _by_percent([values], "%.17g")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_formatter_matches_percent_property(data):
    spec = data.draw(st.sampled_from(_SPECS))
    k = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 40))
    columns = [data.draw(st.lists(st.floats(), min_size=rows, max_size=rows)) for _ in range(k)]
    assert _by_formatter(columns, spec) == _by_percent(columns, spec)


def _percent_calls(monkeypatch, values, spec):
    """The values that the formatter of ``spec`` hands to % one at a time,
    as it formats ``values``."""
    seen = []
    with_percent = svgplot._with_percent

    def recording(text, v, fallback, spec, seps):
        seen.extend(v[fallback].tolist())
        return with_percent(text, v, fallback, spec, seps)

    monkeypatch.setattr(svgplot, "_with_percent", recording)
    assert _by_formatter([values], spec) == _by_percent([values], spec)
    return seen


@pytest.mark.parametrize("spec, leftover", [
    ("%.17g", [np.nan, np.inf, -np.inf]),
    ("%.17g", [1e280, -1e300, 1.7976931348623157e308, 9.9e-281, 5e-324, -2.2250738585072014e-308]),
    ("%.17g", _G17_TIES),
    ("%.2f", [np.nan, np.inf, -np.inf]),
    ("%.2f", [9999.995, 9999.996, 1e4, 2e7, 1e300, 1.7976931348623157e308]),
    ("%.2f", [0.125, 2.675, 0.005, 1.005]),
    ("%.2f", [-0.0, -0.25, -5e-324, -123.456, -1.005]),
], ids=["g17-nonfinite", "g17-range", "g17-tie", "f2-nonfinite", "f2-range", "f2-tie", "f2-sign"])
def test_fallback_classes_take_the_percent_path(monkeypatch, spec, leftover):
    # Non-finite cells, cells outside the kernel's range (for %.2f, also
    # any cell with its sign bit set) and near-ties are formatted by % one
    # at a time, and no other cell is.
    values = [1.5, 0.25, 3.14159, 1e-5, 123.456, 0.0, 9999.994] + leftover
    if spec == "%.17g":
        values += [-0.25, -0.0, -123.456]
    seen = _percent_calls(monkeypatch, values, spec)
    assert [repr(v) for v in seen] == [repr(float(v)) for v in leftover]


def test_f2_words_match_percent_on_explicit_cells(monkeypatch):
    # Integer parts with and without leading zeros, and the edge of the
    # word path at 9999.995, past which %.2f prints a fifth integer digit
    # (9999.996 -> 10000.00).  Cells with the sign bit set, negative zero
    # among them, take % too.
    cells = [0.0, 5e-324, 0.004, 0.5, 7.25, 40.0, 99.999, 780.0, 1000.0, 9999.994, 9999.9949]
    leftover = [9999.995, float(np.nextafter(9999.995, np.inf)), 9999.996, 12345.67, 1e7 - 0.01, -0.0, -0.004]
    seen = _percent_calls(monkeypatch, cells + leftover, "%.2f")
    assert [repr(v) for v in seen] == [repr(v) for v in leftover]
    assert _by_formatter([[9999.996, -0.004]], "%.2f") == "10000.00\n-0.00\n"


@pytest.mark.parametrize("offset, near_tie", [(5e-7, True), (-5e-7, True), (2e-6, False), (-2e-6, False)])
def test_f2_cells_near_a_tie_take_percent_only_inside_the_band(monkeypatch, offset, near_tie):
    # v 100 lies `offset` from a rounding tie: inside the 1e-6 band the
    # float product cannot decide the rounding, so % formats the cell.
    halves = [0, 7, 12, 4500, 99999, 999998]
    values = [(n + 0.5 + offset) / 100 for n in halves]
    for v, n in zip(values, halves):
        assert abs(abs(Fraction(v) * 100 - n - Fraction(1, 2)) - abs(offset)) < 2e-7
    seen = _percent_calls(monkeypatch, values, "%.2f")
    assert len(seen) == (len(values) if near_tie else 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=60))
def test_f2_formatter_matches_percent_below_its_range_limit(values):
    assert _by_formatter([values], "%.2f") == _by_percent([values], "%.2f")


def _polylines(text):
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def _points(text):
    return re.findall(r'<polyline points="([^"]*)"', text)


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 32768])
def test_polylines_match_per_point_oracle(rows):
    # Sorted x fills each pixel column with many points, of which M4 keeps
    # at most four; shuffled x puts nearly every point in a run of its own,
    # so nearly every point is kept and formatted.  Two x values make two
    # runs, which at 32768 rows span several blocks of selected points.
    rng = np.random.default_rng(rows)
    sorted_x = np.sort(rng.uniform(-4.0, 4.0, rows))
    for x in (sorted_x, rng.uniform(-4.0, 4.0, rows), np.floor(sorted_x / 4.0)):
        for n_series in range(1, 7):
            ys = [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4) for _ in range(n_series)]
            text = render_line_chart(x, [(f"s{j}", y) for j, y in enumerate(ys)], title="t")
            assert _points(text) == polyline_points(x, ys), n_series
            assert len(_polylines(text)) == n_series


@pytest.mark.parametrize("n_series", range(1, 7))
def test_polylines_match_oracle_at_shared_x_block_edges(n_series):
    # Every series formats its own kept (x, y) pairs, _BLOCK points a block,
    # whatever the number of series.  Shuffled integer x keeps every point
    # here, so the blocks end at these row counts; sorted x keeps fewer
    # than _BLOCK points.
    rng = np.random.default_rng(n_series)
    for rows in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        for x, shuffled in ((rng.permutation(rows) * 1.0, True), (np.sort(rng.uniform(-4.0, 4.0, rows)), False)):
            ys = [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4) for _ in range(n_series)]
            text = render_line_chart(x, [(f"s{j}", y) for j, y in enumerate(ys)])
            assert _points(text) == polyline_points(x, ys), rows
            kept = {len(p.split()) for p in _points(text)}
            assert (kept == {rows}) if shuffled else (max(kept) < _BLOCK)


_NON_FINITE = [np.nan, np.inf, -np.inf]


def test_chart_rejects_empty_series_and_length_mismatch():
    x = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        render_line_chart(x, [])
    with pytest.raises(ValueError):
        render_line_chart(x, [("a", np.ones(8)), ("b", np.ones(7))])
    # A non-finite value would print nan or inf pixels and ticks.
    for bad in _NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            render_line_chart(x, [("a", np.ones(8)), ("b", np.r_[np.ones(7), bad])])
        with pytest.raises(ValueError, match="finite"):
            render_line_chart(np.r_[bad, x[1:]], [("a", np.ones(8))])


def test_constant_series_and_constant_x_render():
    x = np.linspace(0.0, 1.0, 8)
    flat = [("flat", np.full(8, 2.5))]
    text = render_line_chart(x, flat)
    assert len(_polylines(text)) == 1
    assert _points(text) == polyline_points(x, [np.full(8, 2.5)])
    assert len({p.split(",")[1] for p in _points(text)[0].split()}) == 1
    assert len(_points(text)[0].split()) == 8  # one point a pixel column

    # One pixel column: its first point is its lowest, its last its highest.
    same_x = np.full(8, 3.0)
    ramp = np.arange(8.0)
    text = render_line_chart(same_x, [("ramp", ramp)])
    assert _points(text) == polyline_points(same_x, [ramp])
    assert _points(text) == ["70.00,431.36 70.00,58.64"]


def test_a_pixel_column_keeps_the_first_of_tied_extremes():
    # sx(x) = 70 + x here.  Points 1 and 3 tie for the lowest y of the first
    # pixel column, and points 2 and 4 (its last) for the highest.
    x = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 710.0])
    y = np.array([1.0, 0.0, 2.0, 0.0, 2.0, 1.0])
    points = _points(render_line_chart(x, [("a", y)]))
    assert points == polyline_points(x, [y])
    assert [p.split(",")[0] for p in points[0].split()] == ["70.00", "70.20", "70.40", "70.80", "780.00"]


def test_written_chart_parses_with_one_polyline_per_series(tmp_path):
    x = np.linspace(0.0, np.pi, 64)
    series = [(f"cos {j}x", np.cos(j * x)) for j in range(1, 8)]
    path = tmp_path / "chart.svg"
    write_line_chart(path, x, series, title="harmonics")
    text = path.read_text(encoding="ascii")
    assert text == render_line_chart(x, series, title="harmonics")
    assert len(_polylines(text)) == len(series)


_SORTED = slice(None)
_SHUFFLED = np.random.default_rng(0).permutation(32768)


def _chart_series(order):
    """Three 32768-point series over one period, with x in the given order."""
    x = (np.arange(32768) * (2.0 * np.pi / 32768))[order]
    return x, [("a", 1.0 + np.cos(20.0 * x)), ("b", 1.0 + np.cos(2.0 * x)), ("c", np.abs(np.sin(7.0 * x)))]


def test_written_chart_holds_its_text_about_once(tmp_path):
    # Writing the chart part by part keeps its peak bounded.  Sorted x keeps
    # at most 4 points a pixel column per series.  Shuffled x puts almost
    # every point in a run of its own, so every point is kept and the file
    # is written at full size.
    path = tmp_path / "chart.svg"
    for order in (_SORTED, _SHUFFLED):
        x, series = _chart_series(order)
        tracemalloc.start()
        try:
            write_line_chart(path, x, series, title="memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if order is _SORTED:
            assert path.stat().st_size < 3 * 4 * 711 * len("780.00,450.00 ") + 2000
        else:
            assert path.stat().st_size > 1_300_000
        assert peak <= 2.8e6
        text = path.read_text(encoding="ascii")
        assert text == render_line_chart(x, series, title="memory")
        assert _points(text) == polyline_points(x, [y for _, y in series])


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_output_path_peak_memory_is_bounded():
    # The benchmark gates peak RSS, so the formatters' working memory is
    # held to blocks: 32768 rows of four %.17g cells, and the parts of a
    # three-series 32768-point chart whose x is sorted or shuffled (every
    # point kept).
    columns = [np.random.default_rng(j).standard_normal(32768) for j in range(4)]
    next(format_rows([np.ones(2)]))  # build the formatters' tables outside the traced runs
    render_line_chart(np.arange(2.0), [("a", np.ones(2))])

    def consume():
        for _ in format_rows(columns):
            pass

    assert _traced_peak(consume) <= 3.0e6
    for order in (_SORTED, _SHUFFLED):
        x, series = _chart_series(order)
        assert _traced_peak(lambda: svgplot._chart_parts(x, series, "memory")) <= 3.0e6


@pytest.mark.parametrize("value", [1e20, -1e300, sys.float_info.max, -sys.float_info.max])
def test_chart_of_a_huge_constant_has_a_nonzero_span(value):
    # value + 1 == value at these magnitudes, so the span of constant data
    # is widened by a fraction of |value| instead, towards zero.
    # A constant x puts every point in one pixel column, which keeps its
    # first (lowest) and last (highest) point of the ramp.
    ramp, flat = np.arange(8.0), np.full(8, value)
    for x, y, constant, kept in ((ramp, flat, 1, 8), (flat, ramp, 0, 2)):
        text = render_line_chart(x, [("c", y)])
        points = [p.split(",") for p in _points(text)[0].split()]
        pixels = np.array(points, dtype=float)
        assert np.isfinite(pixels).all()
        assert (pixels[:, 0] >= 70.0).all() and (pixels[:, 0] <= 780.0).all()
        assert (pixels[:, 1] >= 40.0).all() and (pixels[:, 1] <= 450.0).all()
        assert len({p[constant] for p in points}) == 1
        assert len({p[1 - constant] for p in points}) == len(points) == kept
        assert len(_polylines(text)) == 1
    assert [p[1] for p in points] == ["431.36", "58.64"]


def test_chart_wider_than_the_float_range_has_finite_pixels_and_ticks():
    # x_hi - x_lo and y_hi - y_lo overflow here, so each axis maps halved
    # values; a span of subnormals, which halving would zero, still maps
    # exactly as the per-point oracle does.
    wide = np.array([-1e308, 1e308])
    tiny = np.array([0.0, 5e-324, 1e-323])
    to_max = np.array([-1e305, sys.float_info.max])  # the halved top tick rounds up
    cases = ((wide, wide), (wide, np.array([-1.0, 2.0])), (to_max, to_max), (np.arange(3.0), tiny), (tiny, tiny))
    for x, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = render_line_chart(x, [("a", y)])
        pixels = np.array([p.split(",") for p in _points(text)[0].split()], dtype=float)
        assert np.isfinite(pixels).all()
        assert (pixels[:, 0] >= 70.0).all() and (pixels[:, 0] <= 780.0).all()
        assert (pixels[:, 1] >= 40.0).all() and (pixels[:, 1] <= 450.0).all()
        ticks = re.findall(r'font-size="11">([^<]*)</text>', text)
        assert len(ticks) == 10 and np.isfinite(np.array(ticks, dtype=float)).all()
        if x is not wide and x is not to_max:
            assert _points(text) == polyline_points(x, [y])
    # y is padded out to the float range, so +-1e308 lie 1e308 / max of
    # the half height from the middle, 245 px.
    assert _points(render_line_chart(wide, [("a", wide)])) == ["70.00,359.04 780.00,130.96"]


def test_tick_labels_fit_the_margin_at_any_magnitude():
    # In %.2f a constant 1e20 series labels 99999899864196775936.00 and
    # +-1e308 labels of 311-313 characters; such an axis switches to %.3g,
    # while the other axis of the chart keeps its %.2f labels.
    flat = (np.arange(8.0), np.full(8, 1e20))
    wide = (np.array([-1e308, 1e308]), np.array([-1.0, 2.0]))
    for (x, y), plain in ((flat, 0), (wide, 1)):
        labels = re.findall(r'font-size="11">([^<]*)</text>', render_line_chart(x, [("a", y)]))
        assert len(labels) == 10 and max(map(len, labels)) <= 9
        assert all(re.fullmatch(r"-?\d+\.\d\d", label) for label in labels[plain::2])
        assert not any(re.fullmatch(r"-?\d+\.\d\d", label) for label in labels[1 - plain::2])


def test_chart_that_fails_validation_writes_no_file(tmp_path):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError):
        write_line_chart(path, np.arange(8.0), [("a", np.ones(7))])
    for bad in _NON_FINITE:
        with pytest.raises(ValueError):
            write_line_chart(path, np.arange(8.0), [("a", np.r_[np.ones(7), bad])])
        with pytest.raises(ValueError):
            write_line_chart(path, np.r_[np.arange(7.0), bad], [("a", np.ones(8))])
    assert not path.exists()


def test_title_and_labels_are_escaped():
    title, labels = "N<2 & more", ["x<y", "a&b>c", "&amp;"]
    text = render_line_chart(np.arange(4.0), [(label, np.arange(4.0)) for label in labels], title=title)
    texts = [el.text for el in ET.fromstring(text).iter() if el.tag.endswith("text")]
    assert title in texts
    assert texts[-len(labels):] == labels


def _runs(points):
    """Runs of consecutive points of equal x pixel column, as (x, y) pixel texts."""
    runs = []
    for point in points:
        if not runs or int(float(point[0])) != int(float(runs[-1][-1][0])):
            runs.append([])
        runs[-1].append(tuple(point))
    return runs


# x in [0, 710], so that sx(x) = 70 + x: a point's pixel column is the
# integer part of its x, and no %.2f x pixel rounds into the next column.
_PLOT_X = st.builds(lambda column, frac: column + frac,
                    st.sampled_from([0, 1, 2, 355, 708, 709]), st.floats(0.01, 0.98))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_PLOT_X, st.floats(-1e6, 1e6)), min_size=1, max_size=60),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2), st.booleans())
def test_written_polyline_keeps_each_columns_first_last_lowest_and_highest(points, ends, sort):
    # The ends fix the x limits at 0 and 710.
    points += [(0.0, ends[0]), (710.0, ends[1])]
    if sort:
        points.sort(key=lambda p: p[0])
    x, y = (np.array(v) for v in zip(*points))
    px, (py,) = chart_pixels(x, [y])
    full = _runs([(f"{a:.2f}", f"{b:.2f}") for a, b in zip(px, py)])
    drawn = _runs([p.split(",") for p in _points(render_line_chart(x, [("a", y)]))[0].split()])
    assert len(drawn) == len(full)
    for kept, run in zip(drawn, full):
        assert len(kept) <= 4
        assert (kept[0], kept[-1]) == (run[0], run[-1])
        for extreme in (min, max):
            assert extreme(float(p[1]) for p in kept) == extreme(float(p[1]) for p in run)
        remaining = iter(run)  # kept is a subsequence of its run
        assert all(p in remaining for p in kept)
