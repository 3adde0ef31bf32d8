import numpy as np
import pytest
from writer_reference import reference_write_csv, reference_write_svg

from polaron_deco.output import write_csv, write_svg

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
