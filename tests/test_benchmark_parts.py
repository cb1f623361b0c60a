"""Each benchmark part runs against the package and passes its own checks.

The timed benchmark calls the package only through the workloads, so a name
they use that the package no longer provides would otherwise first show up
as a failed benchmark run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import mzvkit
import mzvkit.cli
import mzvkit.numerics as numerics

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("part", workloads.PARTS)
def test_benchmark_part_passes_its_checks(part, monkeypatch):
    monkeypatch.setattr(numerics, "_mzv_cache", {})  # other tests count this cache's growth
    inputs, job, check = workloads.PARTS[part]
    inp = inputs(random.Random(1))
    checks = check(inp, job(mzvkit, inp))
    assert checks and [name for name, passed in checks if not passed] == []
