"""The names the benchmark under ``perfbench/`` looks up in mpalign all
resolve, and the settings it runs with build their configs.

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench's module *name*, with perfbench's directory on ``sys.path``
    while it loads, as ``perfbench/run.py`` has it for its own imports."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec.loader.exec_module(module)
    return module


TRACED = load_perfbench("tracing").TRACED


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


workloads = load_perfbench("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_benchmark_settings_build_configs(name, tmp_path, monkeypatch):
    # a check that refused a setting the benchmark uses would fail every
    # benchmark round; building its configs here fails this suite instead
    spec = workloads.WORKLOADS[name]
    bench = workloads.Bench(spec, seed=1, work=tmp_path)
    recorded = []
    monkeypatch.setattr(pipeline, "run_pipeline", recorded.append)
    bench.run_pipeline(tmp_path / "pipeline")
    [cfg] = recorded
    assert isinstance(cfg, pipeline.PipelineConfig)
    assert (cfg.epochs, cfg.hidden, cfg.seed) == (spec.epochs, spec.hidden, workloads.TRAIN_SEED)
    for k in range(1, spec.align_pairs + 1):
        # the align phase's config, as Bench.align_phase builds it
        pipeline.PipelineConfig(
            data_dir=str(bench.data), out_dir=str(tmp_path), pair=workloads.pair(k),
            seed=workloads.TRAIN_SEED,
        )


def test_the_pipeline_writes_every_output_the_benchmark_compares(tmp_path):
    # the benchmark compares these files of each cold run with the first
    # run's; a renamed artifact would fail it on its first comparison
    spec = workloads.Workload(
        languages=3, n_train=9, n_test=3, vocab=20, len_min=3, len_max=6, hidden=8,
        setup_repeats=1,
    )
    bench = workloads.Bench(spec, seed=1, work=tmp_path)
    bench.setup()
    out = tmp_path / "pipeline"
    bench.run_pipeline(out)
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(workloads.PIPELINE_OUTPUTS) <= written
