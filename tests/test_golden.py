"""Every experiment verb's CSVs against the committed references in
tests/golden (written by tools/make_golden.py from tests/golden_runs.py).

Comment and header lines must match the reference exactly. A number may
differ from the reference by at most one unit of the reference's ninth
significant digit, counted in exact decimal arithmetic on the printed
digits, so that a last-digit rounding flip between numpy builds passes and
anything larger fails. A zero or a non-finite entry must match exactly.
"""

import decimal
import lzma

import pytest

from golden_runs import GOLDEN, RUNS, run

EXACT = decimal.Context(prec=1000)  # wide enough that no difference rounds


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


@pytest.mark.parametrize("name", list(RUNS))
def test_csvs_match_golden(tmp_path, name):
    written = run(name, tmp_path)
    refs = sorted((GOLDEN / name).glob("*.csv.xz"))
    assert [p.name for p in written] == [p.name[:-len(".xz")] for p in refs]
    for csv, ref in zip(written, refs):
        problems = csv_mismatches(csv.read_text(), lzma.decompress(ref.read_bytes()).decode())
        assert not problems, f"{name}/{csv.name}: " + "; ".join(problems[:5])


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
