"""Self-tests of the benchmark itself (not of the program).

    python3 bench/selftest.py

Checks that every generated workload parses to the exact sizes recorded in
golden.json on two seeds (so the seed changes only order and labels, never
the work), that a wrong output is counted as a failure rather than passed,
that both kinds of run report exactly the metrics BENCHMARK.json lists,
that span self times subtract exactly the time child spans cover, and that
the benchmark refuses to report from a directory without the program.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import workloads
from commands import COMMANDS, verify
from spans import Tracer, descendants, self_times
from worker import load_program

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (0, 7)


def run_worker(trace, golden, seconds=0):
    """One rank0-lift run of the worker, as run.py starts it; its JSON result."""
    job = {"workload": "rank0-lift", "seed": 0, "golden": golden, "seconds": seconds,
           "trace": trace, "spans_path": str(BENCH / "out" / "selftest-spans.json")}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def metric_names(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


class WorkloadCounts(unittest.TestCase):
    def test_seed_changes_only_order_and_labels(self):
        mp, cli = load_program()
        for name in workloads.WORKLOADS:
            gold = workloads.golden(name)
            texts = [workloads.generate(name, seed) for seed in SEEDS]
            self.assertNotEqual(texts[0], texts[1], name)
            self.assertEqual(texts[0], workloads.generate(name, SEEDS[0]), name)
            for seed, text in zip(SEEDS, texts):
                with self.subTest(workload=name, seed=seed):
                    p = cli.document_perspective(cli.parse_input(text))
                    got = {
                        "n": p.ground.size,
                        "bases_m": len(p.matroid.bases),
                        "bases_mp": len(p.quotient.bases),
                        "circuits_m": len(p.matroid.circuits),
                        "circuits_mp": len(p.quotient.circuits),
                        "valid_b": len(p.independent_spanning_sets()),
                        "family_d": len(mp.compatible_family(p)),
                    }
                    self.assertEqual(got, {k: gold[k] for k in got})
                    self.assertEqual(str(mp.tutte_activities(p)), gold["polynomial"])

    def test_recorded_sizes(self):
        sizes = {name: workloads.golden(name) for name in workloads.WORKLOADS}
        ladder, uniform, rank0 = (sizes[n] for n in
                                  ("graphic-ladder", "uniform-truncation", "rank0-lift"))
        self.assertEqual((ladder["bases_m"], ladder["bases_mp"], ladder["valid_b"],
                          ladder["circuits_m"]), (377, 335, 712, 21))
        self.assertEqual((uniform["bases_m"], uniform["bases_mp"], uniform["circuits_m"],
                          uniform["circuits_mp"], uniform["valid_b"]), (495, 220, 792, 495, 715))
        self.assertEqual((rank0["bases_m"], rank0["bases_mp"], rank0["valid_b"]), (320, 1, 1582))


class Verification(unittest.TestCase):
    gold = workloads.golden("rank0-lift")

    def right_output(self, metric):
        n = self.gold["valid_b"]
        if metric.startswith("tutte_"):
            return self.gold["polynomial"] + "\n"
        if metric == "table_s":
            return "B\tInt\tExt\tX\tTerm\n" + "row\n" * n
        if metric == "compatible_s":
            return "{1}\n" * n
        return "ok   something\nall checks passed\n"

    def test_right_outputs_pass(self):
        for metric, _ in COMMANDS:
            self.assertIsNone(verify(metric, 0, self.right_output(metric), self.gold), metric)

    def test_wrong_outputs_fail(self):
        for metric, _ in COMMANDS:
            with self.subTest(metric=metric):
                right = self.right_output(metric)
                self.assertIsNotNone(verify(metric, 1, right, self.gold))
                self.assertIsNotNone(verify(metric, None, right, self.gold))
                wrong = {"table_s": right + "row\n", "compatible_s": right[4:],
                         "check_s": "FAIL x\nCHECKS FAILED\n"}.get(metric, "x + 1\n")
                self.assertIsNotNone(verify(metric, 0, wrong, self.gold))

    def test_wrong_output_counts_in_fail_share(self):
        gold = dict(self.gold, polynomial=self.gold["polynomial"] + " + x")
        result = run_worker(trace=0, golden=gold)
        self.assertEqual(set(result["metrics"]), metric_names("end_to_end"))
        tutte_runs = sum(n for metric, n in result["samples"].items()
                         if metric.startswith("tutte_"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], tutte_runs)
        self.assertGreater(result["attempted"], result["failed"])


class TracedRun(unittest.TestCase):
    def test_reports_every_per_layer_metric_and_exact_counts(self):
        gold = workloads.golden("rank0-lift")
        result = run_worker(trace=1, golden=gold)
        self.assertTrue(result["correct"], result["failures"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(set(metrics), metric_names("per_layer"))
        for key in ("n", "bases_m", "bases_mp", "circuits_m", "circuits_mp", "valid_b",
                    "family_d", "terms"):
            self.assertEqual([v for k, v in metrics.items() if k.endswith("." + key)],
                             [gold[key]], key)
        self.assertEqual(metrics["perspective.valid_b_share"], gold["valid_b"] / 2 ** gold["n"])
        with open(BENCH / "out" / "selftest-spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        self.assertEqual(len(spans), metrics["trace.spans"])
        self.assertTrue(all(s["workload"] == "rank0-lift" for s in spans))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = Tracer("w")
        with t.span("bench.root"):
            with t.span("matroid.a"):
                with t.span("setcore.b"):
                    pass
            with t.span("tutte.c"):
                pass
        root, a, b, c = t.spans
        self.assertEqual([s["parent"] for s in t.spans], [None, 0, 1, 0])
        self.assertTrue(all(s["workload"] == "w" for s in t.spans))
        own = self_times(t.spans)
        dur = {s["id"]: s["end"] - s["start"] for s in t.spans}
        self.assertAlmostEqual(own[1], dur[1] - dur[2], places=12)
        self.assertAlmostEqual(own[0], dur[0] - dur[1] - dur[3], places=12)
        self.assertEqual(own[2], dur[2])
        self.assertEqual(descendants(t.spans, 1), [a, b])

    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},
        ]
        self.assertAlmostEqual(self_times(spans)[0], 6.0)


class MissingProgram(unittest.TestCase):
    def test_refuses_without_source(self):
        copy = BENCH / "out" / "selftest-checkout"
        shutil.rmtree(copy, ignore_errors=True)
        try:
            shutil.copytree(BENCH, copy / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", copy)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "rank0-lift", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=copy, timeout=170)
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
