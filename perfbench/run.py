"""End-to-end benchmark of mpalign.

    python3 perfbench/run.py --workload pipeline|train --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark imports ``mpalign`` from ``src/``
next to this directory, generates its inputs with ``mpalign.synth`` from
``--seed``, works in ``.perfbench/`` under the root (removed on exit) and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
"""

import argparse
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline", "train")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpalign" / "__init__.py").is_file():
        print(f"perfbench: no mpalign sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: with OpenBLAS's default of one thread per core, the
    # align-phase rate of one process and the next differed by up to a third
    # on a 2-core machine (see README.md).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import mpalign

    if Path(mpalign.__file__).resolve().parent != SRC / "mpalign":
        print(f"perfbench: mpalign imported from {mpalign.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    print(
        f"perfbench: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, numba {'present' if importlib.util.find_spec('numba') else 'absent'}, "
        f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
        file=sys.stderr,
    )
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
