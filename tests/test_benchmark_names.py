"""The names the benchmark under ``perfbench/`` looks up in mpalign all resolve.

``python3 -m pytest perfbench`` catches a deleted or renamed name too, but
it lies outside this suite's test paths; these checks keep the benchmark's
view of the package under the tier-1 run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import mpalign
from mpalign import features, pipeline


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in TRACED], ids=[f"{m}.{a}" for m, a, _ in TRACED]
)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"mpalign.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        # the tracer patches a method on the class that defines it
        assert callable(vars(getattr(module, owner_name))[method])
    else:
        assert callable(getattr(module, attr))


def test_centralities_is_one_function_under_every_name():
    # the tracer wraps every module's name for the function, so the calls
    # compute_centralities makes count as features.centralities
    assert pipeline.centralities is features.centralities
    assert mpalign.centralities is features.centralities
    assert callable(pipeline.compute_centralities)


@pytest.mark.parametrize(
    "name, params",
    [
        ("load_inputs", ["data_dir", "one_based"]),
        ("build_all_graphs", ["corpus", "alignments", "ids"]),
        ("align_with_model", ["model_path", "graphs", "corpus", "test_ids", "cfg", "out_path"]),
        ("run_pipeline", ["cfg"]),
    ],
)
def test_pipeline_entry_points_keep_their_signatures(name, params):
    assert list(inspect.signature(getattr(pipeline, name)).parameters) == params


def test_pipeline_config_keeps_the_fields_the_benchmark_sets():
    names = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    assert {
        "data_dir", "out_dir", "pair", "gold", "train_ids", "test_ids",
        "seed", "epochs", "hidden", "batch_size",
    } <= names
    assert isinstance(pipeline.PipelineConfig.batch_size, int)
