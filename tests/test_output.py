import math
import re

import numpy as np
import pytest
from writer_reference import reference_write_csv, reference_write_svg

from polaron_deco.output import plot_points, write_csv, write_svg

# 0, -0, non-finite values, subnormals and exponents from 1e-300 to 1e300
EDGE_VALUES = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               5e-324, -2.2e-310, 1e-300, -1e300, 123456789.123, 1e-5, -0.1,
               2.0 / 3.0, -3.5e17, 1.0, 1e16, 0.5e-7, -123.456]


def _mixed_exponents(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)


def _both(tmp_path, name, new, ref, *args, **kwargs):
    a, b = tmp_path / f"{name}.new", tmp_path / f"{name}.ref"
    new(a, *args, **kwargs)
    ref(b, *args, **kwargs)
    return a.read_bytes(), b.read_bytes()


class TestWriteCsvMatchesReference:
    def test_edge_values_and_column_kinds(self, tmp_path):
        n = len(EDGE_VALUES)
        columns = [
            np.array(EDGE_VALUES),
            np.arange(n) - 5,                        # integer column
            [-v for v in EDGE_VALUES],               # plain list of floats
            list(range(n)),                          # plain list of ints
            np.clip(EDGE_VALUES, -3e38, 3e38).astype(np.float32),
            _mixed_exponents(n),
        ]
        header = ["a", "i", "neg", "ints", "f32", "mixed"]
        new, ref = _both(tmp_path, "edge", write_csv, reference_write_csv,
                         header, columns, comments=["# first", "# second x=1"])
        assert new == ref
        assert b"\n0,-4,0,1," in new  # the -0.0 of row 1 prints as 0

    def test_long_block(self, tmp_path):
        t = np.linspace(0.0, 50.0, 10001)
        columns = [t, np.exp(-t), -np.sin(t), _mixed_exponents(t.size),
                   np.arange(t.size)]
        new, ref = _both(tmp_path, "long", write_csv, reference_write_csv,
                         ["t", "e", "s", "m", "k"], columns)
        assert new == ref

    def test_no_rows(self, tmp_path):
        new, ref = _both(tmp_path, "empty", write_csv, reference_write_csv,
                         ["t", "x"], [np.array([]), []])
        assert new == ref == b"t,x\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


class TestWriteSvgMatchesReference:
    @pytest.mark.parametrize("log_x, log_y", [(False, False), (True, False),
                                              (False, True), (True, True)])
    def test_axes(self, tmp_path, log_x, log_y):
        x = np.logspace(-3.0, 2.0, 401)
        series = {"decay": np.exp(-x), "neg": -np.cos(x), "zero": 0.0 * x,
                  "list": list(np.linspace(1e-5, 1e5, x.size))}
        new, ref = _both(tmp_path, "axes", write_svg, reference_write_svg, x,
                         series, title="t", x_label="x", y_label="y",
                         log_x=log_x, log_y=log_y)
        assert new == ref

    def test_constant_series(self, tmp_path):
        # y_hi <= y_lo: the y range falls back to one unit
        x = [0.0, 1.0, 2.0, 3.0]
        new, ref = _both(tmp_path, "flat", write_svg, reference_write_svg, x,
                         {"flat": [0.25] * 4, "same": np.full(4, 0.25)})
        assert new == ref

    def test_constant_x(self, tmp_path):
        new, ref = _both(tmp_path, "flat_x", write_svg, reference_write_svg,
                         np.full(3, 2.0), {"y": [1.0, -0.0, 3.0]})
        assert new == ref

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, tmp_path, bad):
        x = np.linspace(0.0, 1.0, 6)
        y = np.array([1.0, 0.5, bad, 0.1, -0.0, 5e-324])
        new, ref = _both(tmp_path, "bad", write_svg, reference_write_svg, x,
                         {"y": y, "mixed": _mixed_exponents(6)}, log_y=True)
        assert new == ref
        new, ref = _both(tmp_path, "bad_lin", write_svg, reference_write_svg, x,
                         {"y": y})
        assert new == ref

    def test_many_series(self, tmp_path):
        # more series than palette colours
        x = np.linspace(0.0, 50.0, 10001)
        series = {f"s{k}": np.exp(-x / (k + 1)) for k in range(8)}
        new, ref = _both(tmp_path, "many", write_svg, reference_write_svg, x,
                         series, title="many")
        assert new == ref


def _polylines(text):
    """Each polyline's printed points, and the chart's other lines."""
    lines = text.splitlines()
    points = [re.search(r'points="([^"]*)"', line) for line in lines]
    return ([m.group(1).split() for m in points if m],
            [line for line, m in zip(lines, points) if not m])


def _columns(points):
    """(first point, last point, min y, max y) of each run of consecutive
    points whose printed x falls in one pixel column."""
    runs = []
    for p in points:
        x, y = map(float, p.split(","))
        if not runs or math.floor(x) != runs[-1][0]:
            runs.append((math.floor(x), []))
        runs[-1][1].append((p, y))
    return [(pts[0][0], pts[-1][0], min(y for _, y in pts), max(y for _, y in pts))
            for _, pts in runs]


def _chart_pair(tmp_path, x, ys, **style):
    """The SVG of every point and the SVG of the plot_points subset."""
    keep = plot_points(x, ys, style.get("log_x", False), style.get("log_y", False))
    x = np.asarray(x, dtype=float)
    full, kept = tmp_path / "full.svg", tmp_path / "kept.svg"
    write_svg(full, x, {f"y{i}": y for i, y in enumerate(ys)}, **style)
    write_svg(kept, x[keep], {f"y{i}": np.asarray(y)[keep] for i, y in enumerate(ys)},
              **style)
    return keep, full.read_text(), kept.read_text()


def _assert_same_pixels(full, kept):
    # the axes, ticks and labels are unchanged, and each drawn series is a
    # subsequence of the full one with the same first, last, lowest and
    # highest point in every pixel column
    full_points, full_rest = _polylines(full)
    kept_points, kept_rest = _polylines(kept)
    assert kept_rest == full_rest
    for every, some in zip(full_points, kept_points, strict=True):
        remaining = iter(every)
        assert all(p in remaining for p in some)
        assert _columns(some) == _columns(every)


def _walk(n, seed):
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


class TestPlotPoints:
    @pytest.mark.parametrize("log_x, log_y", [(False, False), (True, False),
                                              (False, True), (True, True)])
    def test_keeps_every_column_extreme(self, tmp_path, log_x, log_y):
        # 10,001 points over 563 pixel columns (62 to 624, the right edge
        # included), two series that move in every column
        x = np.logspace(-2.0, 3.0, 10001) if log_x else np.linspace(0.0, 50.0, 10001)
        ys = [_walk(x.size, 1), -0.5 * _walk(x.size, 2)]
        if log_y:
            ys = [np.exp(y / 10.0) for y in ys]
        keep, full, kept = _chart_pair(tmp_path, x, ys, log_x=log_x, log_y=log_y)
        assert 563 * 2 < keep.size <= 563 * 6
        assert np.all(np.diff(keep) > 0)
        _assert_same_pixels(full, kept)

    @pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 200), np.logspace(-3.0, 0.0, 81),
                                   np.linspace(1.0, 0.0, 500)])
    def test_one_point_per_column_keeps_all(self, x):
        # fig1a, fig1b and the smoke grids draw every point
        log_x = x[0] > 0.0 and x[-1] > 0.0 and x.size == 81
        keep = plot_points(x, [np.sin(7.0 * x), np.cos(x)], log_x=log_x)
        assert keep.tolist() == list(range(x.size))

    def test_decreasing_x(self, tmp_path):
        # bangbang's x, delta_t, falls as the cycle count grows
        x = np.linspace(4.0, 0.01, 10001)
        keep, full, kept = _chart_pair(tmp_path, x, [_walk(x.size, 3)], log_x=True)
        assert keep.size <= 563 * 4
        _assert_same_pixels(full, kept)

    def test_constant_series(self, tmp_path):
        # every column keeps its first and last point only; the right edge's
        # column holds the last point alone
        x = np.linspace(0.0, 50.0, 10001)
        keep, full, kept = _chart_pair(tmp_path, x, [np.full(x.size, 0.25)])
        assert keep.size == 562 * 2 + 1
        _assert_same_pixels(full, kept)

    def test_single_column(self, tmp_path):
        # a constant x draws every point in the first column: its first and
        # last point and each series' lowest and highest
        y = _walk(1000, 4)
        keep, full, kept = _chart_pair(tmp_path, np.full(1000, 2.0), [y, -y])
        assert keep.tolist() == sorted({0, 999, int(np.argmin(y)), int(np.argmax(y))})
        _assert_same_pixels(full, kept)
        assert plot_points([3.0], [[1.0]]).tolist() == [0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_keeps_every_point(self, bad):
        x = np.linspace(0.0, 1.0, 5000)
        y = np.exp(-x)
        y[17] = bad
        assert plot_points(x, [y], log_y=True).size == x.size
