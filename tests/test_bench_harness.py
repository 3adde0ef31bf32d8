"""Contract between the package and the benchmark harness in bench/.

bench/child.py wraps cli.run_experiment to time each execution, and
bench/layer_trace.py wraps package functions by the names their callers look
them up by. A renamed or deleted name does not fail a benchmark run: it turns
the metric into null and the layer into "absent". These tests start one
set-up-only, traced execution per workload, as bench/run.py does, and fail
instead.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_setup_run_finds_every_name(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    params = workloads.params_for(name, 0)
    config_path = tmp_path / "state.cfg"
    config_path.write_text(workloads.state_config_text(params["state"]))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    spec = {"kind": wl.kind, "out_dir": str(out_dir), "setup_only": True,
            "trace": True, "params": params, "grid": workloads.RATE_GRID}
    if wl.kind == "cli":
        spec["argv"] = workloads.cli_argv(wl, params, str(config_path), str(out_dir))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("POLARON_DECO_OUT", None)

    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)

    assert proc.returncode == 0, proc.stderr[-2000:]
    # t_first is stamped inside the wrapped cli.run_experiment (or the rk4 route)
    assert "t_first" in json.loads((out_dir / "timing.json").read_text())
    assert json.loads((out_dir / "spans.json").read_text())["absent"] == []
