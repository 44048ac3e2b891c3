"""Tests of the benchmark's input generators, failure accounting and
schema checker.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ctxlab as C  # noqa: E402
import gen  # noqa: E402
import schema  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Generators(unittest.TestCase):
    def test_cycles_have_lucas_many_states(self):
        for k in (3, 5, 8, 11):
            logic = C.parse_logic(gen.cycle(k, "ab_")[0])
            self.assertEqual(len(C.enumerate_states(logic)), gen.lucas(k))
        logic = C.parse_logic(gen.cycle(6)[0])
        self.assertEqual(len(workloads.brute_states(logic)), gen.lucas(6))

    def test_chains_have_two_states(self):
        for n in (1, 2, 7, 300):
            logic = C.parse_logic(gen.chain(n, "c_"))
            self.assertTrue(C.validate_logic(logic).ok)
            self.assertEqual(len(C.enumerate_states(logic)), 2)

    def test_peres24_rays_bases_and_no_states(self):
        text, vec = gen.peres24("p_")
        logic = C.parse_logic(text)
        self.assertEqual(len(gen.peres24_rays()), 24)
        self.assertEqual(len(logic.atoms), 24)
        self.assertEqual(len(logic.contexts), 24)
        self.assertTrue(C.validate_logic(logic).ok)
        self.assertEqual(len(C.enumerate_states(logic)), 0)
        self.assertTrue(C.check_realization(logic, C.parse_vectors(vec)).ok)

    def test_cega18_has_no_states(self):
        logic = C.parse_logic(gen.cega18())
        self.assertEqual((len(logic.atoms), len(logic.contexts)), (18, 9))
        self.assertEqual(len(C.enumerate_states(logic)), 0)
        self.assertEqual(workloads.brute_states(logic), [])

    def test_relabelled_pasting_keeps_state_counts(self):
        pre = gen.prefix(random.Random(5))
        tifs = C.parse_logic(gen.relabelled_fixture("tifs_fig5a", pre))
        tits = C.parse_logic(gen.relabelled_fixture("tits_fig5b", pre))
        self.assertTrue(all(a.startswith(pre) for a in tifs.atoms))
        self.assertEqual(len(C.enumerate_states(tifs)), 13)
        cert = C.certify_value_indefiniteness(tifs, tits, pre + "a", pre + "b")
        self.assertEqual(cert.pasted_state_count, 8)

    def test_inputs_depend_only_on_the_seed(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.inputs(workload, 4), workloads.inputs(workload, 4))
        self.assertNotEqual(workloads.inputs("hull_sweep", 4),
                            workloads.inputs("hull_sweep", 5))


def _raise(exc):
    def fn():
        raise exc
    return fn


class Failures(unittest.TestCase):
    def tally(self, fn, check=lambda result: None, known=None):
        op = workloads.Op("probe", "input", fn, check, known=known)
        _, _, outcomes = worker.run_pass([op], worker.Speed())
        return worker.tally([op], [outcomes])

    def test_known_exception_is_a_known_failure(self):
        t = self.tally(_raise(IndexError("list index out of range")), known="IndexError")
        self.assertEqual((t["correct"], t["failed"], t["unexpected"]), (True, 1, 0))
        self.assertTrue(t["failures"][0]["known"])

    def test_other_exception_on_a_known_op_makes_the_run_incorrect(self):
        t = self.tally(_raise(ValueError("changed")), known="IndexError")
        self.assertEqual((t["correct"], t["failed"], t["unexpected"]), (False, 1, 1))

    def test_wrong_answer_makes_the_run_incorrect(self):
        t = self.tally(lambda: 1, check=lambda result: "wrong answer")
        self.assertEqual((t["correct"], t["failed"], t["wrong"]), (False, 1, 1))

    def test_cli_traceback_is_known_only_for_its_exception(self):
        known = workloads.CliFailure("ZeroDivisionError", "ZeroDivisionError: division by zero")
        other = workloads.CliFailure("KeyError", "KeyError: 'x'")
        self.assertTrue(self.tally(_raise(known), known="ZeroDivisionError")["correct"])
        self.assertFalse(self.tally(_raise(other), known="ZeroDivisionError")["correct"])


class Schema(unittest.TestCase):
    def test_checker_accepts_and_rejects(self):
        spec = {"type": "object", "required": ["x"], "additionalProperties": False,
                "properties": {"x": {"type": "string", "pattern": "^[0-9]+$"}}}
        self.assertEqual(schema.errors({"x": "12"}, spec), [])
        self.assertTrue(schema.errors({"x": "1a"}, spec))
        self.assertTrue(schema.errors({"x": "1", "y": 2}, spec))
        self.assertTrue(schema.errors({}, spec))
        self.assertTrue(schema.errors(True, {"type": "integer"}))


if __name__ == "__main__":
    unittest.main()
