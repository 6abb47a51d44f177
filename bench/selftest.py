"""Self-tests of the benchmark: tiny smoke runs and tracer invariants.

    python3 bench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
``test_*.py``) so that the tier-1 tests do not run benchmark code.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ComposeChain  # noqa: E402

OUT = run.OUT / "selftest"
SEED = 3


def _run(name, trace):
    return run.run_workload(name, SEED, 0.5, trace, tiny=True, out_dir=OUT)


class SmokeTest(unittest.TestCase):
    """Every workload, tiny size, both modes: correct output, every metric printed."""

    def test_workloads(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                record = _run(name, trace=False)
                self.assertTrue(record["correct"], record["failures"])
                self.assertGreaterEqual(record["attempted"], 1)
                self.assertEqual(set(record["metrics"]), set(run.END_TO_END))
                for metric, m in record["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, metric)

    def test_traced_workloads(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                record = _run(name, trace=True)
                self.assertTrue(record["correct"], record["failures"])
                self.assertEqual(set(record["metrics"]), set(run.layer_units()))
                self.assertEqual(record["environment"]["missing_targets"], [])


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOAD_NAMES)


class TracerTest(unittest.TestCase):
    def test_gradient_calls_match_histories_and_repeat(self):
        """gradients.calls = batches per epoch x epochs run, identical across runs.

        A namespace binding the tracer missed would drop calls made through it.
        """
        first = _run("compose-chain", trace=True)["metrics"]
        second = _run("compose-chain", trace=True)["metrics"]
        counts = [k for k, m in first.items() if m["unit"] in ("count", "bytes")]
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})

        workdir = OUT / "bundle"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            ComposeChain(workdir, SEED, tiny=True).generate(run.Capture())
            with open(workdir / "inputs" / "b0" / "data.csv", newline="", encoding="utf-8") as fh:
                n_train = sum(row["split"] == "train" for row in csv.DictReader(fh))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        batches = math.ceil(n_train / 32)  # the CLI's default --batch
        epochs = first["training.epochs"]["value"]
        self.assertGreater(epochs, 0)
        self.assertEqual(first["training.gradients.calls"]["value"], batches * epochs)

    def test_install_replaces_every_binding_and_uninstall_restores(self):
        import compnet.cli  # noqa: F401  (loads every compnet module)

        namespaces = [m for n, m in sys.modules.items() if n == "compnet" or n.startswith("compnet.")]
        originals = set()
        for module_name, attr, _ in tracing.TARGETS:
            owner, _, name = attr.rpartition(".")
            obj = getattr(sys.modules[module_name], owner) if owner else sys.modules[module_name]
            namespaces.append(obj)
            originals.add(id(vars(obj)[name]))

        def bindings():
            return {
                (id(ns), key)
                for ns in namespaces
                for key, value in vars(ns).items()
                if id(value) in originals
            }

        before = bindings()
        self.assertGreater(len(before), len(tracing.TARGETS))  # re-exports exist
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertEqual(bindings(), set())
            self.assertEqual(tr.missing, [])
        finally:
            tr.uninstall()
        self.assertEqual(bindings(), before)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
