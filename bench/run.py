"""polaron-deco benchmark: one workload, one seed, fixed measuring time.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fig2-sweep --seed 0 --seconds 27 --trace 0

Each execution of the workload is a fresh interpreter (bench/child.py) with
PYTHONPATH=src and BLAS pinned to one thread, so it pays what a user pays
when starting the CLI. After one untimed warm-up, five set-up-only
executions run, then full executions one at a time (closed loop, one
client) while inside --seconds, as long as the next one is predicted to end
within 1.2 x --seconds. An execution counts as failed on a nonzero exit or
when its outputs fail bench/checks.py; only correct executions contribute
timings.

--trace 0 reports the end-to-end metrics:
  setup_s      median, process start to the first library call (imports,
               config parse and validation); set-up-only and full executions
  wall_s       median, first library call until the outputs are written
  peak_rss_mb  min over full executions of the process's peak resident memory
failed_frac (failed over attempted) is the final line's failed/attempted.

--trace 1 alternates untraced and traced executions and reports the
per-layer metrics of bench/layer_trace.py, medians over traced executions,
plus trace.overhead_s (traced minus untraced median wall_s).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A record with the environment, every sample
and every problem found is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import layer_trace
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
# one BLAS thread per process: the sweep's two workers would otherwise
# oversubscribe a 2-core machine
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("POLARON_DECO_OUT", None)
    return env


def run_child(root, env, spec, spec_path):
    """Start one execution and wait for it; returns (exit code, peak RSS MB,
    monotonic start time)."""
    os.makedirs(spec["out_dir"])
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(os.path.join(spec["out_dir"], "child.log"), "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        # a blocking wait keeps this process asleep while the child runs
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6, start


def execute(root, env, work, ctx, index, setup_only, traced):
    """One execution plus its output checks; returns a sample dict."""
    wl, params = ctx["workload"], ctx["params"]
    out_dir = os.path.join(work, f"run{index}")
    spec = {"kind": wl.kind, "out_dir": out_dir, "setup_only": setup_only,
            "trace": traced, "params": params, "grid": workloads.RATE_GRID}
    if wl.kind == "cli":
        spec["argv"] = workloads.cli_argv(wl, params, ctx["config_path"], out_dir)
    code, rss_mb, start = run_child(root, env, spec,
                                    os.path.join(work, "spec.json"))
    sample = {"setup_only": setup_only, "traced": traced, "exit": code,
              "peak_rss_mb": rss_mb, "problems": []}
    try:
        if code != 0:
            with open(os.path.join(out_dir, "child.log")) as fh:
                tail = fh.read()[-400:]
            raise RuntimeError(f"exit code {code}: {tail}")
        with open(os.path.join(out_dir, "timing.json")) as fh:
            marks = json.load(fh)
        if not marks["module_file"].startswith(os.path.join(root, "src") + os.sep):
            raise RuntimeError(f"imported {marks['module_file']}, not this checkout")
        sample["setup_s"] = marks["t_first"] - start
        if not setup_only:
            sample["wall_s"] = marks["t_end"] - marks["t_first"]
            sample["cpu_s"] = marks["cpu_end"] - marks["cpu_first"]
            sample["problems"] = checks.check_outputs(
                wl.name, ctx["seed"], out_dir, params, ctx["expected"], wl.outputs)
        if traced:
            with open(os.path.join(out_dir, "spans.json")) as fh:
                sample["layers"] = layer_trace.summarize(json.load(fh))
    except Exception as exc:  # noqa: BLE001 - any failure marks this execution failed
        sample["problems"].append(f"{type(exc).__name__}: {exc}".replace("\n", " | "))
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def _median(values):
    return statistics.median(values) if values else None


def _describe(name, values):
    stat = "min" if name == "peak_rss_mb" else "median"
    if not values:
        return "no correct samples"
    if len(values) < 4:
        return f"{stat} of n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{stat} of n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def keep_going(elapsed, durations, seconds):
    """Start another execution while inside the measuring time and its
    predicted end (median duration so far) stays within 1.2 x that time."""
    return (elapsed < seconds
            and elapsed + statistics.median(durations) <= 1.2 * seconds)


def environment(root):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root):
    """HEAD of root when root is itself a git work tree, else None."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(root):
            return None
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polaron_deco", "cli.py")):
        print(f"no polaron_deco source under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    params = workloads.params_for(wl.name, args.seed)
    work = os.path.join(root, ".bench_out",
                        f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    config_path = os.path.join(work, "state.cfg")
    with open(config_path, "w") as fh:
        fh.write(workloads.state_config_text(params["state"]))
    ctx = {"workload": wl, "params": params, "seed": args.seed,
           "config_path": config_path,
           "expected": checks.expected_series(wl.name, params)}
    env = child_env(root)

    samples = []
    try:
        # warm-up: fills the page cache and the bytecode cache, untimed
        execute(root, env, work, ctx, 0, setup_only=True, traced=False)
        start = time.monotonic()
        for _ in range(SETUP_PROBES):
            samples.append(execute(root, env, work, ctx, len(samples) + 1,
                                   setup_only=True, traced=False))
        durations = []
        while len(durations) < (2 if args.trace else 1) or keep_going(
                time.monotonic() - start, durations, args.seconds):
            traced = bool(args.trace) and len(durations) % 2 == 1
            began = time.monotonic()
            samples.append(execute(root, env, work, ctx, len(samples) + 1,
                                   setup_only=False, traced=traced))
            durations.append(time.monotonic() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [s for s in samples if not s["problems"]]
    failed = len(samples) - len(good)
    plain = [s for s in good if not s["traced"]]
    plain_full = [s for s in plain if not s["setup_only"]]
    series = {
        "setup_s": [s["setup_s"] for s in plain],
        "wall_s": [s["wall_s"] for s in plain_full],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain_full],
    }

    if args.trace:
        traced = [s for s in good if s["traced"]]
        metrics = {}
        for name, unit in layer_trace.PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                walls = [s["wall_s"] for s in traced]
                value = (_median(walls) - _median(series["wall_s"])
                         if walls and series["wall_s"] else None)
                absent = False
            else:
                values = [s["layers"][name] for s in traced]
                absent = None in values
                if absent or not values:
                    value = None
                elif all(isinstance(v, int) for v in values):
                    value = statistics.median_low(values)  # counts stay whole
                else:
                    value = _median(values)
            metrics[name] = {"value": value, "unit": unit}
            if absent:
                metrics[name]["absent"] = True
    else:
        # the sweep's peak memory depends on how many of the other pool
        # thread's arrays are alive when its largest table peaks, and the
        # share of each outcome follows the host's load; the lowest peak
        # of a run (no overlap) is steady
        metrics = {name: {"value": (min(values) if name == "peak_rss_mb"
                                    else _median(values)) if values else None,
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in series.items()}

    env_record = environment(root)
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "params": params,
              "environment": env_record, "samples": samples, "metrics": metrics}
    with open(os.path.join(root, ".bench_out",
                           f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {wl.name} seed {args.seed}: {len(samples)} executions "
          f"({SETUP_PROBES} set-up only), {failed} failed")
    for s in samples:
        for problem in s["problems"]:
            print(f"#   FAILED: {problem}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"#   {name:<48} {metric['value']!s:>22} {metric['unit']}")
    else:
        for name, values in series.items():
            print(f"#   {name:<12} {metrics[name]['value']!s:>22} "
                  f"{END_TO_END_UNITS[name]:<3} ({_describe(name, values)})")
    print(f"#   {'failed_frac':<12} {failed / len(samples):>22.4g} 1   "
          f"({failed} of {len(samples)})")
    print(f"# environment {json.dumps(env_record)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
