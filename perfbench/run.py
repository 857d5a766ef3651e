"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {units,train,serve} --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of stdout is the result as one
JSON object; see perfbench/README.md for the workloads, metrics and seeds.
This entry pins the BLAS pool before NumPy loads and makes sure the program
comes from this checkout's ``src/``; it exits 2 without a result otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # the matrices are small; more threads add contention noise, not speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["units", "train", "serve"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every input, for the benchmark's smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import measure
        import semspeech
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {e!r}", file=sys.stderr)
        return 2
    if not Path(semspeech.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: semspeech imported from {semspeech.__file__}, not src/",
              file=sys.stderr)
        return 2
    return measure.run(args, spec, ROOT, threads)


if __name__ == "__main__":
    sys.exit(main())
