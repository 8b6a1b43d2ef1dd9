"""Run one workload over several seeds and summarise the spread.

  python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--seconds S]
                              [--trace 0|1] [--out FILE] [--summary FILE]

For each metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them.  --out appends one JSON line
per run (seed, exit code, result and machine context) to FILE.  --summary
stores the medians, quartiles and spreads in FILE under
workloads.NAME.trace0|trace1, keeping everything else in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summary", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    context = None
    status = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        context = next(
            (json.loads(line)["context"] for line in lines if line.startswith('{"context"')), context
        )
        if args.out:
            with args.out.open("a") as out:
                out.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "trace": int(args.trace), "exit": done.returncode,
                                      "result": result, "context": context}) + "\n")
        if result is None or not result["correct"]:
            status = 1
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                         if not k.startswith(("numtheory", "groups", "pcgraph",
                                                              "closedforms", "oracles", "verification"))),
              flush=True)
    for name, vals in values.items():
        print(f"{name:45s} median {statistics.median(vals):<12.6g} {units[name]:6s} "
              f"spread {spread(vals):.3f}  (n={len(vals)})")
    if args.summary and values:
        summary = json.loads(args.summary.read_text()) if args.summary.exists() else {}
        entry = {"seeds": args.seeds, "seconds": float(args.seconds), "context": context}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            entry[name] = {"unit": units[name], "median": statistics.median(vals),
                           "q1": q1, "q3": q3, "spread": spread(vals)}
        summary.setdefault("workloads", {}).setdefault(args.workload, {})[
            f"trace{args.trace}"] = entry
        args.summary.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
