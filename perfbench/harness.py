"""Measurement, output checks and metrics of the benchmark; run.py is the
command line entry point and the description of a run is in its docstring.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from primecoprime import pcgraph
from primecoprime import verification as ver
from primecoprime.closedforms import theta_degree as _theta_degree
from primecoprime.groups import Family, GroupSpec
from primecoprime.groups import elements as _elements

from tracer import LAYERS, PER_LAYER, Tracer
from workloads import WORKLOADS, make_ops

RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_PROBES = 7
TAIL_BEYOND = 10

# end-to-end metrics of an untraced run: (name, unit)
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("pass_share", "share"),
)

# layers each workload is predicted to spend most of its time in
DOMINANT = {
    "closedform-sweep": ("numtheory", "closedforms"),
    "structure-sweep": ("pcgraph", "groups"),
    "search-sweep": ("oracles",),
    "export-large": ("pcgraph",),
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def run_op(op):
    """Run one operation through the package's public entry points.

    Sweeps return their records; exports return the exported text.  Every
    function is looked up at call time so that a Tracer's rebinding applies.
    """
    if op.claim == "phi-sum":
        return ver.run_phi_sum(op.lo, op.hi)
    family = Family(op.family)
    if op.claim.startswith("export-"):
        graph = pcgraph.build_theta(GroupSpec(family, op.lo))
        if op.claim == "export-json":
            return pcgraph.graph_to_json(graph, op.family, op.lo)
        return pcgraph.graph_to_dot(graph)
    if op.claim.startswith("degree-"):
        return ver.run_degree(family, op.lo, op.hi, per_element=False)
    if op.claim == "decomp-all":
        return ver.run_decomp([family], op.lo, op.hi, by_order=False)
    if op.claim == "dominating-set":
        return ver.run_dominating_set(family, op.lo, op.hi)
    if op.claim == "epo-complete":
        return ver.run_epo_complete(family, op.lo, op.hi)
    if op.claim.startswith("clique-"):
        return ver.run_clique(family, op.lo, op.hi)
    if op.claim.startswith("ham-cut-"):
        return ver.run_ham_cut(family, op.lo, op.hi)
    if op.claim.startswith("ham-"):
        return ver.run_ham(family, op.lo, op.hi)
    if op.claim.endswith("-join"):
        return ver.run_join_equality(family, op.lo, op.hi)
    raise ValueError(f"unknown claim {op.claim!r}")


# The host's speed drifts: identical work runs up to twice as slow for
# seconds to minutes, through contention from outside this process (CPU time
# drifts with wall time).  Every timing is therefore rescaled by a reference
# routine run between operations, to the seconds it would take when the
# reference takes REFERENCE_S.  The routine is the benchmark's own and calls
# nothing in the package, so a change to the package moves the timings in
# full while a change in host speed cancels.
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.1


def reference_routine() -> int:
    """Fixed interpreter work resembling the package's: small containers,
    dict and set updates, big-integer bit operations, sorting, JSON text."""
    rows = [(i, i * 7 % 1013) for i in range(6000)]
    index: dict[int, list[int]] = {}
    for a, b in rows:
        index.setdefault(b % 97, []).append(a)
    mask = 0
    for _, b in rows:
        mask |= 1 << (b % 512)
    rows.sort(key=lambda r: (r[1], r[0]))
    return len(json.dumps(rows[:3000])) + len(index) + mask.bit_count()


class Reference:
    """Reference samples of one pass: (clock when it ended, duration)."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_routine()
        self.ends.append(time.perf_counter())
        self.durations.append(self.ends[-1] - start)

    def due(self) -> bool:
        return time.perf_counter() - self.ends[-1] >= REFERENCE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the samples from two before start
        to two after end, which smooths the jitter of single samples."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        return REFERENCE_S / statistics.median(self.durations[max(before - 1, 0) : after + 2])


@dataclass
class Pass:
    wall_s: float  # measured: operations plus sorting and serializing the report
    latencies_s: list[float]  # rescaled, see REFERENCE_S
    report_s: float  # rescaled
    reference_s: float  # median reference sample
    failed: int


def run_pass(ops, checks: Checks) -> Pass:
    """Run every operation once, in order.  A raised exception is recorded
    against its operation and the pass goes on.  Each output is checked as
    soon as its operation ends, outside the timed region, so that no
    exported text outlives its operation."""
    spans, records, failed = [], [], 0
    gc.collect()
    ref = Reference()
    ref.sample()
    for i, op in enumerate(ops):
        if ref.due():
            ref.sample()
        start = time.perf_counter()
        try:
            out, error = run_op(op), None
        except Exception as exc:  # counted in pass_share; the run goes on
            out, error = None, type(exc).__name__
        spans.append((start, time.perf_counter()))
        failed += not checks.output(i, op, out, error)
        if isinstance(out, list):
            records.extend(out)
        del out
    ref.sample()
    start = time.perf_counter()
    if records:
        ver.sort_records(records)
        report = ver.jsonl(records)
    end = time.perf_counter()
    ref.sample()
    if records:
        checks.digest("report", _report_digest(report))
    spans.append((start, end))
    scaled = [(b - a) * ref.scale(a, b) for a, b in spans]
    return Pass(
        sum(b - a for a, b in spans), scaled[:-1], scaled[-1],
        statistics.median_low(ref.durations), failed,
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _expected_records(op) -> int:
    return op.hi - op.lo + 1


def _degree_sum(op) -> int:
    group = GroupSpec(Family(op.family), op.lo)
    return sum(_theta_degree(group, x) for x in _elements(group))


def _parse_json_apart(text: str) -> dict:
    """json.loads in a forked child, so that parsing hundreds of megabytes
    does not count towards this process's peak RSS.  Returns the summary
    the checks need, or {"error": ...}."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: parse, report, exit without cleanup
        try:
            payload = json.loads(text)
            summary = {
                "family": payload["family"],
                "parameter": payload["parameter"],
                "labels": len(payload["vertex_labels"]),
                "edges": len(payload["edges"]),
            }
        except Exception as exc:
            summary = {"error": f"{type(exc).__name__}: {exc}"[:200]}
        os.write(write_end, json.dumps(summary).encode())
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else {"error": "parser exited without output"}


def _report_digest(report: str) -> str:
    """sha256 of the sorted JSONL with the timing field `ms` dropped."""
    h = hashlib.sha256()
    for line in report.splitlines():
        payload = json.loads(line)
        payload.pop("ms", None)
        h.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class Checks:
    """Output checks of one run.  The checks call the package functions
    bound when this module was imported, so a Tracer installed later never
    records them as spans."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._parsed: set[int] = set()

    def fail(self, why: str) -> None:
        self.problems.append(why)

    def digest(self, key: str, value: str) -> None:
        """The same output must have the same digest in every pass."""
        if self.digests.setdefault(key, value) != value:
            self.fail(f"{key}: output differs between passes")

    def output(self, i: int, op, out, error: str | None) -> bool:
        """Check one operation's output; False marks the operation failed."""
        before = len(self.problems)
        if error is not None:
            self.fail(f"{op}: raised {error}")
        elif isinstance(out, str):
            self.digest(f"op{i}", hashlib.sha256(out.encode()).hexdigest())
            if i not in self._parsed:  # later passes match by digest
                self._parsed.add(i)
                self._export(op, out)
        else:
            self._records(op, out)
        return len(self.problems) == before

    def _records(self, op, records) -> None:
        if len(records) != _expected_records(op):
            self.fail(f"{op}: {len(records)} records, expected {_expected_records(op)}")
        bad = [r for r in records if r.verdict != "pass" or r.formula != r.oracle]
        if bad:
            self.fail(f"{op}: {bad[0].json_line()}")

    def _export(self, op, text: str) -> None:
        order = GroupSpec(Family(op.family), op.lo).order
        degree_sum = _degree_sum(op)
        if degree_sum % 2:
            self.fail(f"{op}: odd degree sum {degree_sum}")
        edges = degree_sum // 2
        if op.claim == "export-json":
            got = _parse_json_apart(text)
            want = {"family": op.family, "parameter": op.lo, "labels": order, "edges": edges}
            if got != want:
                self.fail(f"{op}: parsed {got}, expected {want}")
            return
        dot_edges = text.count(" -- ")
        dot_vertices = text.count("\n") - dot_edges - 2
        if not text.startswith("graph theta {") or (dot_vertices, dot_edges) != (order, edges):
            self.fail(f"{op}: dot has {dot_vertices} vertices and {dot_edges} edges, "
                      f"expected {order} and {edges}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, operations beyond it) at the highest percentile
    that still has TAIL_BEYOND operations beyond it.  With too few
    operations for that, the slowest operation and 0 beyond."""
    ranked = sorted(values)
    if len(ranked) <= TAIL_BEYOND:
        return ranked[-1], 100.0, 0
    k = len(ranked) - TAIL_BEYOND - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked), TAIL_BEYOND


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are ready
    (interpreter, imports, input generation), once per probe.  perf_counter
    is CLOCK_MONOTONIC on Linux, so parent and child read the same clock."""
    cmd = [sys.executable, str(RUN_PY), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def context() -> dict:
    """Machine context stored with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "threads": threading.active_count(),
        "processes": "one measured process; setup probes and JSON parse checks are children",
        "loop": "closed, one client",
    }


def _median(values):
    """The lower median, so that every reported value is one measured."""
    return statistics.median_low(values)


def per_op_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's median rescaled latency over the passes."""
    return [_median(column) for column in zip(*(p.latencies_s for p in passes))]


def rescaled_wall(passes: list[Pass]) -> float:
    """All operations, each at its median, plus the median report step."""
    return sum(per_op_latencies(passes)) + _median([p.report_s for p in passes])


def end_to_end(untraced: list[Pass], setup: list[float], attempted: int, failed: int) -> dict:
    per_op = per_op_latencies(untraced)
    return {
        "wall_s": rescaled_wall(untraced),
        "op_p50_ms": 1000 * _median(per_op),
        "op_tail_ms": 1000 * tail(per_op)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median(setup),
        "pass_share": 1 - failed / attempted,
    }


def per_layer(workload: str, untraced: list[Pass], traced: list[tuple[Pass, Tracer]]) -> dict:
    layer_runs = [tracer.metrics(p.wall_s) for p, tracer in traced]
    out = {name: _median([m[name] for m in layer_runs]) for name in layer_runs[0]}
    out["trace.wall_s"] = rescaled_wall([p for p, _ in traced])
    out["trace.untraced_wall_s"] = rescaled_wall(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    dominant = sum(out[f"{layer}.self_s"] for layer in DOMINANT[workload])
    out["trace.dominant_share"] = dominant / traced_pass_wall(traced)
    return out


def traced_pass_wall(traced: list[tuple[Pass, Tracer]]) -> float:
    """Median wall time of a traced pass, the base of the layer shares."""
    return _median([p.wall_s for p, _ in traced])


def dominance_statement(workload: str, metrics: dict, wall: float) -> str:
    """Whether the predicted dominant layers hold most of a traced pass."""
    share = metrics["trace.dominant_share"]
    verdict = "most" if share > 0.5 else "NOT most"
    others = [
        (metrics[f"{layer}.self_s"], layer) for layer in LAYERS
        if layer not in DOMINANT[workload]
    ] + [(metrics["benchmark.self_s"], "benchmark")]
    other_s, other = max(others)
    return (
        f"{workload}: predicted dominant layers {' + '.join(DOMINANT[workload])} hold "
        f"{share:.1%} of traced wall_s ({verdict}); largest other: {other} {other_s / wall:.1%}"
    )


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="primecoprime benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="build the inputs, print the clock and exit (setup_s probes)")
    return parser.parse_args(argv)


@dataclass
class Run:
    checks: Checks
    untraced: list[Pass]
    traced: list[tuple[Pass, Tracer]]
    ops: int  # operations per pass

    @property
    def attempted(self) -> int:
        return self.ops * (len(self.untraced) + len(self.traced))

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.untraced) + sum(p.failed for p, _ in self.traced)


def measure(ops, seconds: float, trace: bool) -> Run:
    """Run passes until `seconds` of pass time are measured, at least one;
    with `trace`, untraced and traced passes alternate, at least one each."""
    run = Run(Checks(), [], [], len(ops))
    measured = 0.0
    while measured < seconds or not run.untraced or (trace and not run.traced):
        if trace and len(run.traced) < len(run.untraced):
            tracer = Tracer()
            with tracer.installed():
                result = run_pass(ops, run.checks)
            run.traced.append((result, tracer))
        else:
            result = run_pass(ops, run.checks)
            run.untraced.append(result)
        measured += result.wall_s
    return run


def result_line(run: Run, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not run.checks.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        make_ops(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    ops = make_ops(args.workload, args.seed)
    run = measure(ops, args.seconds, bool(args.trace))

    print(json.dumps({"context": context()}))
    for problem in run.checks.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed, "
          f"fail_share {run.failed / run.attempted}; {len(ops)} per pass, "
          f"{len(run.untraced)} untraced and {len(run.traced)} traced passes")
    if args.trace:
        metrics = per_layer(args.workload, run.untraced, run.traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(dominance_statement(args.workload, metrics, traced_pass_wall(run.traced)))
        spans = run.traced[0][1]
        for (parent, span), calls in sorted(spans.parents.items(), key=str):
            print(f"span {parent or 'benchmark'} > {span}: {calls} calls")
    else:
        metrics = end_to_end(run.untraced, setup, run.attempted, run.failed)
        units = dict(END_TO_END)
        _, pct, beyond = tail(per_op_latencies(run.untraced))
        print(f"op_tail_ms is the p{pct:.2f} operation, {beyond} operations beyond it")
    reference = _median([p.reference_s for p in run.untraced])
    print(f"reference routine: median {reference * 1000:.3f} ms, so measured times are "
          f"scaled by about {REFERENCE_S / reference:.3f}; measured pass wall time: median "
          f"{_median([p.wall_s for p in run.untraced]):.4f} s")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(result_line(run, metrics, units))
    return 0 if not run.checks.problems else 1
