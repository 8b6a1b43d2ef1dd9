"""Benchmark of the primecoprime sweeps and graph export.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
process, one thread, a closed loop with one client: each operation starts
when the previous one has finished.  A pass runs the workload's seeded
operation list once; passes repeat until --seconds of pass time have been
measured, and every timing is a median over passes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracer.py) plus the
tracing overhead.  Every output is checked; the last stdout line is one JSON
object with keys correct, attempted, failed and metrics, and the exit code
is 1 when a check failed, 2 when the package cannot be imported.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "primecoprime"
sys.path[:0] = [str(PACKAGE.parent), str(HERE)]


def main() -> int:
    try:
        import primecoprime
    except ImportError as exc:
        print(f"error: cannot import primecoprime: {exc}", file=sys.stderr)
        return 2
    if Path(primecoprime.__file__).resolve().parent != PACKAGE:
        print(f"error: primecoprime imported from outside {PACKAGE}", file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
