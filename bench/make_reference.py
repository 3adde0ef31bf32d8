"""Regenerate the seed-0 reference outputs under bench/reference/.

Usage, from the root of a source checkout:

    python3 bench/make_reference.py

Runs every workload once at seed 0 through bench/child.py and stores each
CSV it writes, xz-compressed. For the CLI workloads it also runs the verb
with no generated inputs at all (the CLI defaults, with only --out and the
fixed problem size) and refuses to write a reference unless both CSV sets
are byte-identical, so seed 0 is the paper's parameter set. Only rerun this
when the program's outputs are meant to change.
"""

from __future__ import annotations

import filecmp
import lzma
import os
import shutil
import subprocess
import sys

import checks
import run
import workloads


def main():
    root = os.getcwd()
    env = run.child_env(root)
    work = os.path.join(root, ".bench_out", "reference-build")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        for wl in workloads.WORKLOADS.values():
            params = workloads.params_for(wl.name, 0)
            out_dir = os.path.join(work, wl.name)
            config_path = os.path.join(work, wl.name + ".cfg")
            with open(config_path, "w") as fh:
                fh.write(workloads.state_config_text(params["state"]))
            spec = {"kind": wl.kind, "out_dir": out_dir, "setup_only": False,
                    "trace": False, "params": params, "grid": workloads.RATE_GRID}
            if wl.kind == "cli":
                spec["argv"] = workloads.cli_argv(wl, params, config_path, out_dir)
            code, _, _ = run.run_child(root, env, spec, os.path.join(work, "spec.json"))
            if code != 0:
                sys.exit(f"{wl.name}: exit code {code}")
            csvs = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
            if wl.kind == "cli":
                plain = os.path.join(work, wl.name + "-defaults")
                argv = [wl.verb, "--out", plain]
                argv += (["--svg"] if wl.name == "fig2-sweep" else
                         ["--modes", str(workloads.ORACLE_MODES),
                          "--nmax", str(workloads.ORACLE_NMAX)])
                subprocess.run([sys.executable, "-m", "polaron_deco.cli", *argv],
                               cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
                _, mismatch, errors = filecmp.cmpfiles(out_dir, plain, csvs, shallow=False)
                if mismatch or errors:
                    sys.exit(f"{wl.name}: seed 0 differs from the CLI defaults in "
                             f"{mismatch + errors}")
            problems = checks.CHECKS[wl.name](
                out_dir, params, checks.expected_series(wl.name, params))
            if problems:
                sys.exit(f"{wl.name}: outputs fail their checks: {problems}")
            dest = os.path.join(checks.REFERENCE_DIR, wl.name)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for name in csvs:
                with open(os.path.join(out_dir, name), "rb") as src, \
                        lzma.open(os.path.join(dest, name + ".xz"), "wb",
                                  preset=9 | lzma.PRESET_EXTREME) as fh:
                    fh.write(src.read())
            print(f"{wl.name}: {', '.join(csvs)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
