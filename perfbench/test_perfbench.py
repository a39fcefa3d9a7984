"""Tests for the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers  # noqa: E402
from perfbench.run import Run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _texts(workload, count: int) -> list[str]:
    return [item.source for item in islice(workload.inputs(), count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed_and_are_distinct(name):
    workload = WORKLOADS[name](7)
    texts = _texts(workload, 12)
    assert texts == _texts(WORKLOADS[name](7), 12)
    assert len(set(texts)) == len(texts)
    assert workload.warm_up_input().source not in texts
    assert texts != _texts(WORKLOADS[name](8), 12)


def test_deep_shapes_match_their_python_reference():
    from repro.pascal import run_source

    shape = WORKLOADS["deep-debug"](0).shapes[1]
    fault = (shape.depth // 2, 5)
    assert run_source(shape.source(fault)).output == shape.expected_output(fault)
    assert shape.expected_output(fault) != shape.expected_output()


def _scanned_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and layers._scanned(name)
        for key, value in vars(module).items()
    }


def test_traced_run_restores_every_wrapped_attribute():
    methods = {}
    for module_name, class_name, attr, _layer in layers.METHOD_LAYERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        methods[cls, attr] = cls.__dict__[attr]
    run = Run("corpus-diff", seed=3, traced=True)
    before = _scanned_bindings()
    run.measure(1.5)
    assert run.traced_latencies, "no traced request ran"
    assert run.tracer.layer("pascal.lex").calls > 0
    after = _scanned_bindings()
    for key, value in before.items():
        assert after[key] is value, f"{key} not restored"
    wrappers = {id(wrapper) for _original, wrapper in run.tracer._functions}
    assert not [key for key, value in after.items() if id(value) in wrappers]
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original


def _benchmark_names(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_clean_and_emits_the_declared_metrics(name, trace):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "5",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _benchmark_names(section)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-diff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
