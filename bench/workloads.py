"""Workload definitions: seeded physical parameters and the inputs handed to
the program.

Every workload has a fixed problem size (time grid, Hilbert dimension,
cycle list); the seed only draws physical parameters, from ranges narrow
enough that the work per run stays the same. Seed 0 is the paper's
parameter set, i.e. the CLI defaults.

Initial states are always pure: the exact oracle evolves one branch per
nonzero eigenvalue of rho0, so a mixed state would double its work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# the paper's fig2 state: rho_SS = 2/3, rho_ST = sqrt(2)/3 (pure)
FIG2_STATE = (2.0 / 3.0, math.sqrt(2.0) / 3.0, 0.0)

# fixed problem sizes, the same at every seed
RATE_GRID = (50.0, 0.005)        # t_max, dt: 10001 points
ORACLE_MODES, ORACLE_NMAX = 3, 7  # Hilbert dim 2 * 8**3 = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "cli" (run through polaron_deco.cli.main) or "rk4"
    verb: str | None   # CLI verb for kind "cli"
    outputs: tuple     # files the run must write


WORKLOADS = {
    w.name: w for w in (
        Workload("fig2-sweep", "cli", "sweep-s",
                 ("config_echo.cfg", "fig2a.csv", "fig2bcd.csv",
                  "fig2a.svg", "fig2bcd.svg")),
        Workload("rk4-crosscheck", "rk4", None,
                 ("ode.csv", "closed_form.csv")),
        Workload("oracle-exact", "cli", "oracle-compare",
                 ("config_echo.cfg", "compare.csv")),
        Workload("oracle-bangbang", "cli", "bangbang",
                 ("config_echo.cfg", "bangbang.csv")),
    )
}


def _pure_state(rng: random.Random):
    """Pure qubit state with rho_SS in [0.55, 0.85] and a random phase."""
    rho_ss = rng.uniform(0.55, 0.85)
    mag = math.sqrt(rho_ss * (1.0 - rho_ss))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return rho_ss, mag * math.cos(phase), mag * math.sin(phase)


def params_for(name: str, seed: int) -> dict:
    """Physical parameters of one workload at one seed (seed 0: paper)."""
    rng = random.Random(f"{name}:{seed}")
    paper = seed == 0
    if name == "fig2-sweep":
        return {
            # one s per decade, each within 5% of the paper's value: the
            # kernel-table node count grows with t_max + s
            "s_values": [1.0, 10.0, 100.0] if paper else
                        [d * rng.uniform(0.95, 1.05) for d in (1.0, 10.0, 100.0)],
            "lambda_g": 1.0 if paper else rng.uniform(0.5, 1.5),
            "state": FIG2_STATE if paper else _pure_state(rng),
        }
    if name == "rk4-crosscheck":
        return {
            "s": 1.0 if paper else rng.uniform(0.95, 1.05),
            "lambda_g": 1.0 if paper else rng.uniform(0.5, 1.5),
            "j_hop": 1.0,
            "state": FIG2_STATE if paper else _pure_state(rng),
        }
    if name == "oracle-exact":
        # oracle-compare mode defaults: lambda 0.1, J 0.1, t_max 10, dt 0.0125
        return {
            "lambda_g": 0.1 if paper else rng.uniform(0.05, 0.15),
            "state": FIG2_STATE if paper else _pure_state(rng),
        }
    if name == "oracle-bangbang":
        # bangbang mode defaults: lambda 1, s = pi, J 0.5, T = 4, cycles 4..64
        return {
            "lambda_g": 1.0 if paper else rng.uniform(0.5, 1.5),
            "state": FIG2_STATE if paper else _pure_state(rng),
        }
    raise KeyError(name)


def state_config_text(state) -> str:
    """Config-file lines for the initial state (the CLI has no flags for it)."""
    rho_ss, re_st, im_st = state
    return (f"rho_ss = {rho_ss!r}\nre_rho_st = {re_st!r}\n"
            f"im_rho_st = {im_st!r}\n")


def cli_argv(workload: Workload, params: dict, config_path: str,
             out_dir: str) -> list:
    """Command-line arguments handed to polaron_deco.cli.main."""
    argv = [workload.verb, "--config", config_path, "--out", out_dir,
            "--lambda", repr(params["lambda_g"])]
    if workload.name == "fig2-sweep":
        argv += ["--svg", "--s", ",".join(repr(s) for s in params["s_values"])]
    else:
        argv += ["--modes", str(ORACLE_MODES), "--nmax", str(ORACLE_NMAX)]
    return argv
