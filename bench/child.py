"""One workload execution in a fresh interpreter, as a user would start it.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON names the workload kind, its inputs, an output directory, and
whether to trace and whether to stop at set-up. The process writes
timing.json there: time.monotonic() (a system-wide clock on Linux, so the
parent can compare it with its own) at the first call into the library after
imports and config validation, and when the outputs are written. Any failure
propagates as an exception, i.e. a nonzero exit.
"""

import json
import os
import sys
import time


def _run_cli(spec):
    from polaron_deco import cli

    marks = {}
    run_experiment = cli.run_experiment

    def timed(config):
        marks["t_first"] = time.monotonic()
        marks["cpu_first"] = time.process_time()
        if spec["setup_only"]:
            return []
        written = run_experiment(config)
        marks["t_end"] = time.monotonic()
        marks["cpu_end"] = time.process_time()
        return written

    cli.run_experiment = timed
    code = cli.main(spec["argv"])
    if code != 0:
        sys.exit(code)
    return marks


def _run_rk4(spec):
    from polaron_deco import bath, dynamics, numerics, rates

    p = spec["params"]
    t_max, dt = spec["grid"]
    model = bath.BathModel(lambda_g=p["lambda_g"], s=p["s"])
    grid = numerics.TimeGrid(t_max=t_max, dt=dt)
    rho_ss, re_st, im_st = p["state"]
    rho0 = dynamics.DensityMatrixST.from_parts(rho_ss, complex(re_st, im_st))
    marks = {"t_first": time.monotonic(), "cpu_first": time.process_time()}
    if spec["setup_only"]:
        return marks
    table = rates.build_rate_table(model, p["j_hop"], grid)
    ode = dynamics.evolve_ode(rho0, table)
    closed = dynamics.evolve_closed_form(rho0, table)
    out = spec["out_dir"]
    ode.to_csv(os.path.join(out, "ode.csv"))
    closed.to_csv(os.path.join(out, "closed_form.csv"))
    marks["t_end"] = time.monotonic()
    marks["cpu_end"] = time.process_time()
    return marks


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import polaron_deco

    tracer = None
    if spec["trace"]:
        import layer_trace

        tracer = layer_trace.install()
    runner = _run_cli if spec["kind"] == "cli" else _run_rk4
    marks = runner(spec)
    marks["module_file"] = polaron_deco.__file__
    out = spec["out_dir"]
    if tracer is not None:
        tracer.dump(os.path.join(out, "spans.json"))
    with open(os.path.join(out, "timing.json"), "w") as fh:
        json.dump(marks, fh)


if __name__ == "__main__":
    main()
