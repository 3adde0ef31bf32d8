"""Regenerate the golden CSV and SVG references under tests/golden.

Runs every entry of tests/golden_runs.py and writes each file it keeps,
xz-compressed, to tests/golden/<run>/<name>.xz, replacing the old set.
Regenerate only for an intended output change, and state the change and its
size where the change is described. The Tier-1 tests do not run this script.

Usage: python3 tools/make_golden.py
"""

import lzma
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_runs  # noqa: E402


def main() -> int:
    shutil.rmtree(golden_runs.GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in golden_runs.RUNS:
            dest = golden_runs.GOLDEN / name
            dest.mkdir(parents=True)
            for path in golden_runs.run(name, Path(tmp) / name):
                ref = dest / (path.name + ".xz")
                ref.write_bytes(lzma.compress(path.read_bytes()))
                print(f"{ref.relative_to(ROOT)}  {ref.stat().st_size:,} B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
