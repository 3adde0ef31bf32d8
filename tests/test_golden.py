"""Every experiment verb's CSVs and SVGs against the committed references
in tests/golden (written by tools/make_golden.py from tests/golden_runs.py).

CSVs: comment and header lines must match the reference exactly. A number
may differ from the reference by at most one unit of the reference's ninth
significant digit, counted in exact decimal arithmetic on the printed
digits, so that a last-digit rounding flip between numpy builds passes and
anything larger fails. A zero or a non-finite entry must match exactly.

SVGs: every line must match the reference exactly once each polyline's
points attribute is blanked out. Each polyline must draw as many points as
the reference's, and every coordinate must lie within 0.01 px of it, one
step of the printed precision. So the axes, ticks, labels and legend are
pinned byte for byte, and the drawn points are pinned to the pixel columns
they fall in, which is what a change to the decimation moves.
"""

import decimal
import lzma
import re

import pytest

from golden_runs import GOLDEN, RUNS, run

EXACT = decimal.Context(prec=1000)  # wide enough that no difference rounds
POINT_TOL = 0.01  # px
POINTS = re.compile(r'points="([^"]*)"')


def cell_mismatch(value: str, ref: str) -> bool:
    """True unless value is within one unit of ref's ninth significant digit."""
    a, r = decimal.Decimal(value), decimal.Decimal(ref)
    if not (a.is_finite() and r.is_finite()) or r.is_zero():
        return value != ref
    unit = decimal.Decimal(1).scaleb(r.adjusted() - 8)
    return abs(EXACT.subtract(a, r)) > unit


def csv_mismatches(text: str, ref_text: str) -> list:
    """Human-readable differences between a CSV and its reference."""
    lines, refs = text.splitlines(), ref_text.splitlines()
    if len(lines) != len(refs):
        return [f"{len(lines)} lines, reference has {len(refs)}"]
    # the comment lines and the header line that follows them
    n_text = next(i for i, ref in enumerate(refs) if not ref.startswith("#")) + 1
    out = []
    for no, (line, ref) in enumerate(zip(lines, refs), start=1):
        if no <= n_text:
            if line != ref:
                out.append(f"line {no}: {line!r} != {ref!r}")
            continue
        cells, ref_cells = line.split(","), ref.split(",")
        if len(cells) != len(ref_cells) or any(map(cell_mismatch, cells, ref_cells)):
            out.append(f"line {no}: {line} != {ref}")
    return out


def _coordinates(points: str) -> list:
    return [float(v) for p in points.split() for v in p.split(",")]


def svg_mismatches(text: str, ref_text: str) -> list:
    """Human-readable differences between an SVG and its reference."""
    lines, refs = text.splitlines(), ref_text.splitlines()
    if len(lines) != len(refs):
        return [f"{len(lines)} lines, reference has {len(refs)}"]
    out = []
    for no, (line, ref) in enumerate(zip(lines, refs), start=1):
        if POINTS.sub('points=""', line) != POINTS.sub('points=""', ref):
            out.append(f"line {no}: {line[:200]!r} != {ref[:200]!r}")
            continue
        if not POINTS.search(ref):
            continue
        got, want = (_coordinates(POINTS.search(s).group(1)) for s in (line, ref))
        if len(got) != len(want):
            out.append(f"line {no}: {len(got) // 2} points, reference has {len(want) // 2}")
        elif any(abs(a - b) > POINT_TOL + 1e-9 for a, b in zip(got, want)):
            worst = max(abs(a - b) for a, b in zip(got, want))
            out.append(f"line {no}: a point is {worst:.3g} px from the reference")
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> the files RUNS[name] keeps, each run once per module."""
    done = {}

    def get(name):
        if name not in done:
            done[name] = run(name, tmp_path_factory.mktemp(name))
        return done[name]
    return get


def _compare(written, suffix, name, mismatches):
    refs = sorted((GOLDEN / name).glob(f"*{suffix}.xz"))
    written = [p for p in written if p.suffix == suffix]
    assert [p.name for p in written] == [p.name[:-len(".xz")] for p in refs]
    for path, ref in zip(written, refs):
        problems = mismatches(path.read_text(), lzma.decompress(ref.read_bytes()).decode())
        assert not problems, f"{name}/{path.name}: " + "; ".join(problems[:5])


@pytest.mark.parametrize("name", [n for n in RUNS if ".csv" in RUNS[n][2]])
def test_csvs_match_golden(outputs, name):
    _compare(outputs(name), ".csv", name, csv_mismatches)


@pytest.mark.parametrize("name", [n for n in RUNS if ".svg" in RUNS[n][2]])
def test_svgs_match_golden(outputs, name):
    _compare(outputs(name), ".svg", name, svg_mismatches)


@pytest.mark.parametrize("value, ref, mismatch", [
    ("0.123456789", "0.123456789", False),
    ("0.12345679", "0.123456789", False),     # one unit up
    ("0.123456788", "0.123456789", False),    # one unit down
    ("0.123456791", "0.123456789", True),     # two units
    ("0.0080896983", "0.00808969831", False),  # one unit, not exact in binary
    ("1e-05", "9.99999999e-06", False),       # across a decade, one unit
    ("9.99999998e-06", "1e-05", False),       # a tenth of the reference's unit
    ("1.0000001e-05", "1e-05", True),
    ("0", "0", False),
    ("1e-300", "0", True),
    ("nan", "nan", False),
    ("nan", "0.5", True),
    ("-0.5", "0.5", True),
])
def test_cell_rule(value, ref, mismatch):
    assert cell_mismatch(value, ref) is mismatch


def test_comment_and_header_must_match_exactly():
    ref = "# j_tilde=0.1\nt,C\n0,1\n"
    assert csv_mismatches(ref, ref) == []
    assert csv_mismatches("# j_tilde=0.10000001\nt,C\n0,1\n", ref)
    assert csv_mismatches("# j_tilde=0.1\nt,D\n0,1\n", ref)
    assert csv_mismatches("# j_tilde=0.1\nt,C\n0,1\n0.1,1\n", ref)


def test_svg_rule():
    ref = ('<svg viewBox="0 0 640 480">\n<text x="1">t</text>\n'
           '<polyline points="62.00,34.00 70.50,40.25" fill="none"/>\n</svg>\n')
    assert svg_mismatches(ref, ref) == []
    # each coordinate within 0.01 px
    assert svg_mismatches(ref.replace("70.50,40.25", "70.51,40.24"), ref) == []
    assert svg_mismatches(ref.replace("70.50", "70.52"), ref)
    # one point more or fewer
    assert svg_mismatches(ref.replace("70.50,40.25", "70.50,40.25 71.00,41.00"), ref)
    assert svg_mismatches(ref.replace(" 70.50,40.25", ""), ref)
    # any other byte
    assert svg_mismatches(ref.replace('fill="none"', 'fill="red"'), ref)
    assert svg_mismatches(ref.replace(">t<", ">u<"), ref)
    assert svg_mismatches(ref + "<g/>\n", ref)
