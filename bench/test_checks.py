"""Self-tests for the benchmark's output checks and tracer.

    python3 bench/test_checks.py

Each checker is fed a real output, which must pass, and corrupted copies
of it (a flipped verdict, a wrong coefficient, a basis missing one member),
each of which must fail.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.dir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        cls.writer = workloads.DocWriter(cls.dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass

    def setUp(self):
        self.cli = run.import_facering()

    def stdout(self, argv) -> str:
        _, code, out, err, escaped = run.run_job(self.cli, argv)
        self.assertIsNone(escaped)
        self.assertEqual(code, 0, err)
        return out

    def complex_doc(self, facets) -> tuple[str, list]:
        doc = workloads.simplicial(facets)
        return self.writer.write(doc), checks.facet_sets(doc)

    def test_cm_basis_and_verify(self):
        rng = random.Random("selftest-cm")
        path, facets = self.complex_doc(
            workloads.shellable(rng, 2, list("abcde"), 3))
        out = self.stdout(["basis", "--input", path, "--sd"])
        self.assertEqual(checks.check_basis(out, facets), [])
        payload = json.loads(out)

        missing = dict(payload, basis=payload["basis"][:-1])
        self.assertNotEqual(checks.check_basis(json.dumps(missing), facets), [])
        flipped = dict(payload, verdict="not-cm")
        self.assertNotEqual(checks.check_basis(json.dumps(flipped), facets), [])
        relabeled = json.loads(out)
        relabeled["basis"][1]["label_set"] = [1, 2]
        self.assertNotEqual(checks.check_basis(json.dumps(relabeled), facets), [])

        candidate = json.dumps([b["face"] for b in payload["basis"]])
        out = self.stdout(["verify", "--input", path, "--sd",
                           "--candidate", candidate])
        self.assertEqual(checks.check_verify(out, facets, candidate), [])
        invalid = dict(json.loads(out), valid=False)
        self.assertNotEqual(
            checks.check_verify(json.dumps(invalid), facets, candidate), [])
        short = json.dumps([b["face"] for b in payload["basis"][:-1]])
        self.assertNotEqual(checks.check_verify(out, facets, short), [])

    def test_not_cm_certificate(self):
        rng = random.Random("selftest-not-cm")
        for field in ("rational", "gf:2", "gf:32003"):
            path, facets = self.complex_doc(
                workloads.not_cm(rng, 2, list("abcdefg"), 3, 1))
            out = self.stdout(["check-cm", "--input", path, "--sd",
                               "--field", field])
            self.assertEqual(checks.check_not_cm(out, facets, field), [], out)
            payload = json.loads(out)

            wrong = json.loads(out)
            member, coeff = wrong["representation"][0]
            wrong["representation"][0] = [member, str(Fraction(coeff) + 1)]
            self.assertNotEqual(
                checks.check_not_cm(json.dumps(wrong), facets, field), [])
            flipped = dict(payload, verdict="cm")
            self.assertNotEqual(
                checks.check_not_cm(json.dumps(flipped), facets, field), [])
            self.assertNotEqual(checks.check_basis(out, facets), [])

    def test_cross_term(self):
        out = self.stdout(["cross-term", "--d", "3"])
        self.assertEqual(checks.check_cross_term(out, 3), [])
        payload = json.loads(out)
        for bad in (dict(payload, coefficient="1"), dict(payload, odd=False)):
            self.assertNotEqual(checks.check_cross_term(json.dumps(bad), 3), [])
        self.assertNotEqual(checks.check_cross_term(out, 4), [])

    def test_equivariant_and_represent(self):
        doc, order, gensets = workloads.EQUIVARIANT_COMPLEXES["double-edge"]
        path = self.writer.write(doc)
        group = self.writer.write({"generators": gensets[0]})
        out = self.stdout(["equivariant-iso", "--input", path, "--group", group,
                           "--degree-bound", "3"])
        self.assertEqual(checks.check_equivariant(out, order, 4), [])
        payload = json.loads(out)
        broken = json.loads(out)
        broken["report"]["isomorphism"] = False
        for bad in (broken, dict(payload, group_order=1),
                    dict(payload, basis=payload["basis"][:-1])):
            self.assertNotEqual(
                checks.check_equivariant(json.dumps(bad), order, 4), [])

        out = self.stdout(["represent", "--input", path,
                           "--expr", "x[w]^2*x[beta]"])
        self.assertEqual(checks.check_represent(out, 4), [])
        payload = json.loads(out)
        missing = dict(payload, basis=payload["basis"][:-1])
        self.assertNotEqual(checks.check_represent(json.dumps(missing), 4), [])

    def test_digest_and_exit_code(self):
        job = self.writer.job("cross-term", ["cross-term", "--d", "3"])
        out = self.stdout(job.argv)
        digests = {job.key: run.digest(out)}
        self.assertEqual(run.judge(job, 0, out, None, digests), [])
        self.assertNotEqual(run.judge(job, 0, out.replace("3", "5"), None,
                                      digests), [])
        self.assertNotEqual(run.judge(job, 1, out, None, digests), [])
        self.assertNotEqual(run.judge(job, 0, out, None, {}), [])


class TracerTest(unittest.TestCase):
    def test_layers_on_cm_and_straighten(self):
        cli = run.import_facering()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.start_job(0)
        _, code, _, _, _ = run.run_job(cli, ["cross-term", "--d", "3"])
        self.assertEqual(code, 0)
        stats = tracer.round_metrics()
        self.assertEqual(stats["cli.run.self_s"] > 0, True)
        self.assertEqual(stats["equivariant.cross_term.calls"], 1)
        self.assertGreater(stats["face_ring.mul.calls"], 0)
        self.assertEqual(stats["linalg.insert.calls"], 0)
        names = [k for k, _ in tracing.layer_metric_names()]
        self.assertEqual(sorted(names), sorted(stats))
        run.import_facering()  # drop the wrapped modules


class PercentileTest(unittest.TestCase):
    def test_tail_leaves_ten_jobs(self):
        self.assertEqual(run.tail_percentile(45), 75)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(39), 50)
        self.assertEqual(run.percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(run.percentile([3, 1, 2, 4], 75), 3)


if __name__ == "__main__":
    unittest.main()
