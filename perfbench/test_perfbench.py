"""Tests of the benchmark itself (not of the package).

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import sys
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracer  # noqa: E402
from primecoprime import oracles, verification  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402

SMALL = [
    Op("clique-cyclic", "cyclic", 5, 5),
    Op("clique-cyclic", "cyclic", 6, 6),
    Op("degree-dihedral", "dihedral", 7, 7),
    Op("phi-sum", "-", 90, 99),
]


def _per_claim(ops):
    return Counter((op.claim, op.family, op.hi - op.lo) for op in ops)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(make_ops(workload, 7), make_ops(workload, 7))

    def test_other_seed_other_operations_same_count_per_claim(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = make_ops(workload, 1), make_ops(workload, 2)
                self.assertNotEqual(first, second)
                self.assertEqual(_per_claim(first), _per_claim(second))

    def test_sweeps_run_in_ascending_order_per_claim(self):
        for workload in WORKLOADS:
            ops = make_ops(workload, 3)
            for claim in {(op.claim, op.family) for op in ops}:
                ns = [op.lo for op in ops if (op.claim, op.family) == claim]
                self.assertEqual(ns, sorted(ns), claim)


class FailureAccountingTest(unittest.TestCase):
    def test_clean_pass(self):
        run = harness.measure(SMALL, 0, trace=False)
        self.assertEqual((run.attempted, run.failed, run.checks.problems), (4, 0, []))

    def _assert_one_failure(self, run):
        self.assertEqual((run.attempted, run.failed), (4, 1))
        self.assertTrue(run.checks.problems)
        metrics = harness.end_to_end(run.untraced, [0.1], run.attempted, run.failed)
        self.assertLess(metrics["pass_share"], 1.0)  # i.e. fail_share > 0
        line = json.loads(harness.result_line(run, metrics, dict(harness.END_TO_END)))
        self.assertFalse(line["correct"])

    def test_wrong_oracle_answer_fails_the_operation(self):
        real = oracles.max_clique

        def off_by_one(graph, *args):
            found = real(graph, *args)
            if graph.vertex_count == 6:
                return oracles.CliqueResult(found.size + 1, found.witness)
            return found

        with mock.patch.object(oracles, "max_clique", off_by_one):
            self._assert_one_failure(harness.measure(SMALL, 0, trace=False))

    def test_raised_error_is_counted_and_the_run_goes_on(self):
        real = verification.run_clique

        def crash_on_five(family, lo, hi, *args):
            if lo == 5:
                raise RecursionError("maximum recursion depth exceeded")
            return real(family, lo, hi, *args)

        with mock.patch.object(verification, "run_clique", crash_on_five):
            run = harness.measure(SMALL, 0, trace=False)
        self._assert_one_failure(run)
        self.assertIn("RecursionError", run.checks.problems[0])

    def test_command_exits_nonzero_when_a_check_fails(self):
        def wrong(family, lo, hi, *args, **kwargs):
            return [verification.ClaimRecord("degree-dihedral", "dihedral", lo, None, 1, 2, "fail")]

        out = io.StringIO()
        with mock.patch.object(harness, "make_ops", lambda *_: SMALL[2:3]), \
                mock.patch.object(harness, "measure_setup", lambda *_: [0.1]), \
                mock.patch.object(verification, "run_degree", wrong), \
                contextlib.redirect_stdout(out):
            code = harness.main(["--workload", "closedform-sweep", "--seed", "1", "--seconds", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (False, 1))


class ExportCheckTest(unittest.TestCase):
    OP = Op("export-json", "cyclic", 12, 12)

    def _text(self):
        return harness.run_op(self.OP)

    def test_exported_text_passes(self):
        checks = harness.Checks()
        self.assertTrue(checks.output(0, self.OP, self._text(), None))
        dot = Op("export-dot", "cyclic", 12, 12)
        self.assertTrue(checks.output(1, dot, harness.run_op(dot), None))

    def test_missing_edge_fails(self):
        payload = json.loads(self._text())
        payload["edges"].pop()
        self.assertFalse(harness.Checks().output(0, self.OP, json.dumps(payload), None))

    def test_unparsable_json_fails(self):
        self.assertFalse(harness.Checks().output(0, self.OP, self._text()[:-3], None))

    def test_text_that_changes_between_passes_fails(self):
        checks = harness.Checks()
        checks.output(0, self.OP, self._text(), None)
        payload = json.loads(self._text())
        payload["vertex_labels"][0] = "x"
        self.assertFalse(checks.output(0, self.OP, json.dumps(payload), None))


class TracerTest(unittest.TestCase):
    def test_spans_and_restore(self):
        original = verification.run_degree
        t = tracer.Tracer()
        with t.installed():
            self.assertIsNot(verification.run_degree, original)
            harness.run_op(Op("degree-cyclic", "cyclic", 12, 12))
        self.assertIs(verification.run_degree, original)
        self.assertEqual(t.calls["verification.run"], 1)
        self.assertEqual(t.calls["closedforms.theta_degree"], 12)
        self.assertEqual(t.calls["pcgraph.build_theta"], 1)
        self.assertEqual(t.parents["verification.run", "pcgraph.build_theta"], 1)
        metrics = t.metrics(wall_s=t.top_level_s)
        # Z_12 has six order classes among its twelve elements
        self.assertEqual(metrics["closedforms.theta_degree.distinct_share"], 6 / 12)
        self.assertEqual(metrics["pcgraph.build_theta.vertices"], 12)
        for name, value in metrics.items():
            if name.endswith("self_s"):
                self.assertGreaterEqual(value, 0, name)
        self.assertAlmostEqual(metrics["benchmark.self_s"], 0.0)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(harness.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(tracer.PER_LAYER),
        )

    def test_baseline_predictions_name_reported_metrics(self):
        baseline = json.loads((HERE / "baseline.json").read_text())
        self.assertEqual(
            {w: tuple(layers) for w, layers in baseline["dominant_layers"].items()},
            harness.DOMINANT,
        )
        per_layer = {name for name, _, _ in tracer.PER_LAYER}
        end_to_end = {name for name, _ in harness.END_TO_END}
        for prediction in baseline["predictions"]:
            self.assertLessEqual(set(prediction["layer_metrics"]), per_layer)
            for workload, metrics in prediction["moves"].items():
                self.assertIn(workload, WORKLOADS)
                self.assertLessEqual(set(metrics), end_to_end)

    def test_tail_has_ten_operations_beyond_it(self):
        self.assertEqual(harness.tail(list(range(100))), (89, 90.0, 10))
        self.assertEqual(harness.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


if __name__ == "__main__":
    unittest.main()
