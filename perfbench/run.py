"""nscausal benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload s1-te --seed 100 --seconds 24 --trace 0
    python3 perfbench/run.py --check-roadmap

With ``--trace 0`` the workload's ops run once, untraced, and the last line
of output holds the end-to-end metrics as JSON.  With ``--trace 1`` each op
runs untraced and then traced, with spans around every public call; the
last line holds the per-layer metrics and the spans go to
``perfbench/out/``.  The correctness gates run in both modes; when one
trips, the result says ``"correct": false`` and the exit code is 1.
``--check-roadmap`` re-measures the counters of the ROADMAP re-anchor table
and exits 1 on a mismatch.  See ``perfbench/README.md``.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("s1-te", "s2-de", "s4-wide", "mec-trees")
SETUP_SAMPLES = 5
# single-threaded BLAS, like the rest of the run; set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int,
                        help="replication seed base (default: the workload's "
                             "acceptance seed)")
    parser.add_argument("--seconds", type=int, default=24,
                        help="target length of the timed section; fixes the "
                             "op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-roadmap", action="store_true",
                        help="re-measure the ROADMAP re-anchor counters")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.check_roadmap and args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def _setup(args):
    """Import nscausal and build the workload's inputs; the timed set-up."""
    import harness  # the first import of nscausal and numpy
    import workloads

    seed = args.seed
    if seed is None:
        seed = workloads.WORKLOADS[args.workload].default_seed
    return harness, workloads.prepare(args.workload, seed, args.seconds)


def _setup_in_child(args, seed) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    raw, factor = done.stdout.split()[-2:]
    return float(raw), float(factor)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "nscausal" / "__init__.py").is_file():
        print(f"error: no nscausal sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.check_roadmap:
        import harness

        return harness.check_roadmap()

    start = time.perf_counter()
    harness, prepared = _setup(args)
    setup_here = (time.perf_counter() - start, harness.settled_speed_factor())
    if args.setup_probe:
        print(*map(repr, setup_here))
        return 0
    setup_samples = [setup_here] + [_setup_in_child(args, prepared.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
    return harness.run(prepared, bool(args.trace), setup_samples)


if __name__ == "__main__":
    sys.exit(main())
