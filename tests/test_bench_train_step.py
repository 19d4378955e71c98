"""``benchmarks/bench_train_step.py`` runs against the current training API."""

import importlib.util
import math
from pathlib import Path


def test_run_suite_times_every_row():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_train_step.py"
    spec = importlib.util.spec_from_file_location("bench_train_step", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    results = bench.run_suite(hidden=16)
    for name in bench.ROWS:
        assert math.isfinite(results[f"{name}_median_ms"]), name
