"""The CLI runs whose outputs tests/golden holds: every experiment verb at
the sizes of CI's CLI smoke step, oracle-compare from a mixed, nearly pure
initial state, each with its CSVs and SVGs, and sweep-s at its default grid,
whose SVGs are the ones drawn from a subset of the rows (its CSVs, ~280 KB
compressed, are left out). tools/make_golden.py writes the references from
these runs, and tests/test_golden.py compares fresh runs with them.
"""

import contextlib
import io
from pathlib import Path

import polaron_deco.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# eigenvalues 0.99899 and 1.0e-3: the smaller branch carries a weight that a
# dropped branch would show at the third digit
NEARLY_PURE = "rho_ss = 0.6\nre_rho_st = 0.48\nim_rho_st = 0.0927\n"

BOTH = (".csv", ".svg")

# run name -> (argv without --svg and --out, config file text or None, the
# suffixes of the files kept)
RUNS = {
    "single": (["single", "--tmax", "2", "--dt", "0.01"], None, BOTH),
    "sweep-s": (["sweep-s", "--tmax", "2", "--dt", "0.01"], None, BOTH),
    "sweep-lambda": (["sweep-lambda", "--tmax", "2", "--dt", "0.01"], None, BOTH),
    "effective-hopping": (["effective-hopping"], None, BOTH),
    "bangbang": (["bangbang", "--nmax", "2"], None, BOTH),
    "oracle-compare": (["oracle-compare", "--nmax", "2"], None, BOTH),
    "oracle-compare-nearly-pure": (["oracle-compare", "--nmax", "2"], NEARLY_PURE, BOTH),
    "sweep-s-default": (["sweep-s"], None, (".svg",)),
}


def run(name, work_dir) -> list:
    """Run RUNS[name] with --svg and its outputs under work_dir; returns the
    paths of the files it keeps, sorted."""
    argv, config_text, suffixes = RUNS[name]
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    if config_text is not None:
        (work_dir / "run.cfg").write_text(config_text)
        argv = argv + ["--config", str(work_dir / "run.cfg")]
    out = work_dir / "out"
    with contextlib.redirect_stdout(io.StringIO()):  # the paths main prints
        code = cli.main(argv + ["--svg", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return sorted(p for p in out.iterdir() if p.suffix in suffixes)
