import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mpalign import cli
from mpalign import pipeline as pl
from mpalign.cli import main
from mpalign.gnn import TrainConfig
from mpalign.pipeline import PipelineConfig
from mpalign.synth import SynthConfig


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "synth", "--out", str(out), "--sentences", "40", "--languages", "3",
        "--vocab", "40", "--len-min", "4", "--len-max", "7",
        "--edge-drop", "0.2", "--edge-noise", "0.05", "--seed", "3",
        "--test-size", "8",
    ])
    assert rc == 0
    return out


def run_pipeline(synth_dir, out_dir, seed="3", extra=()):
    return main([
        "pipeline", "--data", str(synth_dir), "--out", str(out_dir),
        "--pair", "l00,l01", "--gold", str(synth_dir / "l00-l01.gold"),
        "--train-ids", str(synth_dir / "train_ids.txt"),
        "--test-ids", str(synth_dir / "test_ids.txt"),
        "--hidden", "32", "--seed", seed, *extra,
    ])


def count_built_graphs(monkeypatch) -> list[str]:
    """Record the sentence id of every graph the pipeline module builds."""
    built = []
    real = pl.build_graph

    def counting(sid, *args):
        built.append(sid)
        return real(sid, *args)

    monkeypatch.setattr(pl, "build_graph", counting)
    return built


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("synth", "build-graph", "communities", "features", "train",
                "align", "eval", "project", "pipeline"):
        assert cmd in out


def test_help_enumerates_pipeline_flags(capsys):
    with pytest.raises(SystemExit):
        main(["pipeline", "--help"])
    out = capsys.readouterr().out
    for flag in ("--alpha", "--orig", "--lr", "--batch-size",
                 "--epochs", "--train-sample", "--seed", "--hidden", "--ablate",
                 "--eval-bins", "--one-based"):
        assert flag in out


def test_build_graph_dump(synth_dir, tmp_path, monkeypatch):
    built = count_built_graphs(monkeypatch)
    out = tmp_path / "graphs.txt"
    rc = main(["build-graph", "--data", str(synth_dir), "--out", str(out),
               "--sentence", "v00000"])
    assert rc == 0
    assert built == ["v00000"]
    text = out.read_text()
    assert text.startswith("# sentence v00000")
    assert "edge\t" in text


def test_communities_tsv(synth_dir, tmp_path):
    out = tmp_path / "comm.tsv"
    rc = main(["communities", "--data", str(synth_dir), "--algorithm", "lpc",
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    line = out.read_text().splitlines()[0]
    sid, payload = line.split("\t")
    assert sid.startswith("v")
    assert all(":" in item for item in payload.split())


def test_features_artifacts(synth_dir, tmp_path):
    out = tmp_path / "feats"
    rc = main(["features", "--data", str(synth_dir), "--out", str(out),
               "--word-tsv"])
    assert rc == 0
    std = json.loads((out / "standardizer.json").read_text())
    assert len(std["mean"]) == 5
    tsv = (out / "word_vectors.tsv").read_text().splitlines()[0].split("\t")
    assert len(tsv) == 3 and len(tsv[2].split()) == 100


def test_pipeline_and_eval_artifacts(synth_dir, tmp_path):
    out = tmp_path / "run"
    assert run_pipeline(synth_dir, out) == 0
    assert (out / "model.mpwa").exists()
    eval_rows = (out / "eval.tsv").read_text().splitlines()
    assert eval_rows[0].startswith("method\tprecision")
    assert len(eval_rows) == 3  # header + input + gnn


def test_pipeline_cache_hit_and_determinism(synth_dir, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run_pipeline(synth_dir, out1) == 0
    model_bytes = (out1 / "model.mpwa").read_bytes()
    align_name = "l00-l01.tgdfa.align"
    align_bytes = (out1 / align_name).read_bytes()

    # rerun in place: cache hit, artifacts untouched
    mtime = (out1 / "model.mpwa").stat().st_mtime_ns
    assert run_pipeline(synth_dir, out1) == 0
    assert (out1 / "model.mpwa").stat().st_mtime_ns == mtime

    # fresh directory, same seed: byte-identical outputs
    assert run_pipeline(synth_dir, out2) == 0
    assert (out2 / "model.mpwa").read_bytes() == model_bytes
    assert (out2 / align_name).read_bytes() == align_bytes


@pytest.mark.parametrize(
    "stage,writer",
    [
        ("communities", "write_communities_tsv"),
        ("features", "write_feature_artifacts"),
        ("train", "save_checkpoint"),
        ("align", "write_pharaoh"),
        ("eval", "evaluate_predictions"),
    ],
)
def test_failed_stage_leaves_no_cache_hit(
    synth_dir, tmp_path, monkeypatch, caplog, stage, writer
):
    """Run A, then a run B with another seed and one training id fewer (so
    every stage's key differs) whose stage writer raises after writing, then A
    again: A's stage must miss and rebuild A's outputs."""
    import mpalign.pipeline as pl

    out = tmp_path / "run"
    fewer_ids = tmp_path / "train_ids_b.txt"
    fewer_ids.write_text(
        "\n".join((synth_dir / "train_ids.txt").read_text().split()[1:]) + "\n"
    )

    def snapshot():
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.suffix != ".key"
        }

    assert run_pipeline(synth_dir, out, seed="3") == 0
    first = snapshot()

    real = getattr(pl, writer)

    def write_then_fail(*args, **kwargs):
        real(*args, **kwargs)
        raise RuntimeError("injected fault")

    monkeypatch.setattr(pl, writer, write_then_fail)
    rc = run_pipeline(synth_dir, out, seed="4", extra=("--train-ids", str(fewer_ids)))
    assert rc == 1
    monkeypatch.undo()

    caplog.clear()
    with caplog.at_level("INFO", logger="mpalign.pipeline"):
        assert run_pipeline(synth_dir, out, seed="3") == 0
    assert f"{stage}: cache hit" not in caplog.messages
    assert snapshot() == first


STAGES = ("communities", "features", "train", "align", "eval")


def cache_hits(caplog, run) -> list[str]:
    """The stages that *run* (a pipeline invocation) took from the cache."""
    caplog.clear()
    with caplog.at_level("INFO", logger="mpalign.pipeline"):
        assert run() == 0
    return [m.split(":")[0] for m in caplog.messages if m.endswith(": cache hit")]


# one change to a run, and the stages that miss after it: those whose key
# holds what changed, directly or through an upstream stage's key
CACHE_MISSES = [
    ("changed1", ("--seed", "7"), ["communities", "train", "align", "eval"]),
    ("epochs", ("--epochs", "2"), ["train", "align", "eval"]),
    ("lr", ("--lr", "0.002"), ["train", "align", "eval"]),
    ("hidden", ("--hidden", "16"), ["train", "align", "eval"]),
    ("ablate", ("--ablate", "word"), ["train", "align", "eval"]),
    ("batch-size", ("--batch-size", "7"), ["train", "align", "eval"]),
    ("alpha", ("--alpha", "3"), ["align", "eval"]),
    ("orig", ("--orig", "{data}/l00-l01.align"), ["align", "eval"]),
    ("test-ids", ("--test-ids", "{tmp}/test_ids.txt"), ["align", "eval"]),
    ("train-ids", ("--train-ids", "{tmp}/train_ids.txt"),
     ["features", "train", "align", "eval"]),
    ("eval-bins", ("--eval-bins", "2"), ["eval"]),
    ("gold", ("--gold", "{tmp}/l00-l01.gold"), ["eval"]),
]


@pytest.mark.parametrize(
    "changed, misses", [c[1:] for c in CACHE_MISSES], ids=[c[0] for c in CACHE_MISSES]
)
def test_features_stage_ignores_run_settings(
    synth_dir, tmp_path, caplog, changed, misses
):
    """A rerun after one change redoes the stages that read what changed and
    reuses the others; the features stage reads only the inputs and the
    training ids. The id and gold files of a change drop their first line."""
    for name in ("train_ids.txt", "test_ids.txt", "l00-l01.gold"):
        lines = (synth_dir / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[1:]))
    out = tmp_path / "run"
    assert run_pipeline(synth_dir, out) == 0
    extra = [arg.format(data=synth_dir, tmp=tmp_path) for arg in changed]
    hits = cache_hits(caplog, lambda: run_pipeline(synth_dir, out, extra=extra))
    assert hits == [stage for stage in STAGES if stage not in misses]


def test_an_unchanged_rerun_hits_every_stage(synth_dir, tmp_path, caplog):
    out = tmp_path / "run"
    assert run_pipeline(synth_dir, out) == 0
    assert cache_hits(caplog, lambda: run_pipeline(synth_dir, out)) == list(STAGES)


def test_a_program_change_misses_every_stage(synth_dir, tmp_path, caplog, monkeypatch):
    """Every stage key holds the digest of the program, so artifacts written by
    other code are not reused; the same code rewrites the same bytes."""
    out = tmp_path / "run"
    assert run_pipeline(synth_dir, out) == 0
    first = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    monkeypatch.setattr(pl, "code_digest", lambda: "0" * 64)
    assert cache_hits(caplog, lambda: run_pipeline(synth_dir, out)) == []
    for path, data in first.items():
        if path.suffix == ".key":
            assert path.read_bytes() != data, path
        else:
            assert path.read_bytes() == data, path


def test_code_digest_covers_the_sources_and_numpy_and_scipy(tmp_path, monkeypatch):
    import numpy
    import scipy

    digest = pl.code_digest.__wrapped__  # uncached
    installed = pl.code_digest()
    copy = tmp_path / "mpalign"
    shutil.copytree(Path(pl.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(pl, "__file__", str(copy / "pipeline.py"))
    assert digest() == installed
    gnn_py = copy / "gnn.py"
    gnn_py.write_text(gnn_py.read_text().replace("WEIGHT_DECAY = 0.01", "WEIGHT_DECAY = 0.5"))
    seen = {installed, digest()}
    for module in (numpy, scipy):
        monkeypatch.setattr(module, "__version__", "0.0.0")
        seen.add(digest())
    assert len(seen) == 4


def test_pipeline_different_seed_changes_model(synth_dir, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run_pipeline(synth_dir, out1, seed="3") == 0
    assert run_pipeline(synth_dir, out2, seed="4") == 0
    assert (out1 / "model.mpwa").read_bytes() != (out2 / "model.mpwa").read_bytes()


def test_ablation_zeroes_block_in_checkpoint(synth_dir, tmp_path):
    from mpalign.checkpoint import load_checkpoint

    out = tmp_path / "abl"
    assert run_pipeline(synth_dir, out, extra=("--ablate", "centrality")) == 0
    params, _, _, _, cfg = load_checkpoint(out / "model.mpwa")
    assert cfg.ablate == ("centrality",)
    assert not params["feat.cent_w"].any()
    assert not params["feat.cent_b"].any()
    assert params["gat1.W"].shape[0] == 236 - 20


def test_align_and_eval_commands(synth_dir, tmp_path):
    run = tmp_path / "run"
    assert run_pipeline(synth_dir, run) == 0
    aligned = tmp_path / "test.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(run / "model.mpwa"),
        "--pair", "l00,l02", "--out", str(aligned),
        "--test-ids", str(synth_dir / "test_ids.txt"),
    ])
    assert rc == 0
    assert aligned.exists()

    rc = main([
        "eval", "--pred", str(run / "l00-l01.tgdfa.align"),
        "--gold", str(synth_dir / "l00-l01.gold"), "--pair", "l00,l01",
        "--out", str(tmp_path / "eval.tsv"),
    ])
    assert rc == 0
    assert (tmp_path / "eval.tsv").read_text().count("\n") == 2


def test_train_then_align(synth_dir, tmp_path):
    """`train` needs no language pair, and writes the checkpoint and log that
    `pipeline` writes with the same settings; `align` applies it."""
    from mpalign.checkpoint import load_checkpoint

    run = tmp_path / "run"
    rc = main([
        "train", "--data", str(synth_dir), "--out", str(run),
        "--train-ids", str(synth_dir / "train_ids.txt"), "--hidden", "32", "--seed", "3",
    ])
    assert rc == 0
    _, _, _, _, cfg = load_checkpoint(run / "model.mpwa")
    assert (cfg.hidden, cfg.seed) == (32, 3)
    aligned = tmp_path / "test.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(run / "model.mpwa"),
        "--pair", "l00,l01", "--out", str(aligned),
        "--test-ids", str(synth_dir / "test_ids.txt"),
    ])
    assert rc == 0

    piped = tmp_path / "pipeline"
    assert run_pipeline(synth_dir, piped) == 0
    for name in ("model.mpwa", "train_log.json"):
        assert (run / name).read_bytes() == (piped / name).read_bytes()
    assert aligned.read_bytes() == (piped / "l00-l01.tgdfa.align").read_bytes()


# every PipelineConfig field but the two paths: (flag, argument, parsed value),
# each value other than the field's default
PIPELINE_FLAGS = {
    "pair": ("--pair", "a,b", ("a", "b")),
    "gold": ("--gold", "g.gold", "g.gold"),
    "orig": ("--orig", "o.align", "o.align"),
    "train_ids": ("--train-ids", "train.txt", "train.txt"),
    "test_ids": ("--test-ids", "test.txt", "test.txt"),
    "one_based": ("--one-based", None, True),
    "alpha": ("--alpha", "3.5", 3.5),
    "lr": ("--lr", "0.02", 0.02),
    "batch_size": ("--batch-size", "17", 17),
    "epochs": ("--epochs", "3", 3),
    "train_sample": ("--train-sample", "99", 99),
    "seed": ("--seed", "7", 7),
    "hidden": ("--hidden", "24", 24),
    "ablate": ("--ablate", "word,language", ("word", "language")),
    "eval_bins": ("--eval-bins", "4", 4),
}


def parse_pipeline(*flags):
    args = cli.build_parser().parse_args(["pipeline", "--data", "d", "--out", "o", *flags])
    return cli._pipeline_config(args, args.out)


def test_every_pipeline_flag_sets_its_config_field():
    names = {f.name for f in dataclasses.fields(PipelineConfig)} - {"data_dir", "out_dir"}
    assert set(PIPELINE_FLAGS) == names
    argv = [
        item for flag, arg, _ in PIPELINE_FLAGS.values() for item in (flag, arg) if item
    ]
    cfg = parse_pipeline(*argv)
    default = PipelineConfig(data_dir="d", out_dir="o")
    for name, (flag, _, value) in PIPELINE_FLAGS.items():
        assert getattr(default, name) != value, flag
        assert getattr(cfg, name) == value, flag
    assert setting_dests("pipeline") == names


def test_every_model_setting_has_a_pipeline_field():
    # a TrainConfig field that no PipelineConfig field (and so no flag) sets
    # would be a setting that nothing can change
    pipeline = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert {f.name for f in dataclasses.fields(TrainConfig)} <= pipeline


def test_omitted_pipeline_flags_take_dataclass_defaults():
    cfg = parse_pipeline("--pair", "a,b")
    assert cfg == PipelineConfig(data_dir="d", out_dir="o", pair=("a", "b"))


def setting_dests(command):
    """The dests of a subcommand's flags, less its paths and non-config flags."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    dests = {a.dest for a in sub.choices[command]._actions}
    return dests - {"help", "data", "out", "model", "algorithm"}


@pytest.mark.parametrize(
    "command,config",
    [("synth", SynthConfig), ("communities", PipelineConfig), ("train", PipelineConfig),
     ("align", PipelineConfig), ("pipeline", PipelineConfig)],
)
def test_every_setting_flag_names_a_config_field(command, config):
    # a flag whose dest names no field would be dropped without a word
    assert setting_dests(command) <= {f.name for f in dataclasses.fields(config)}


def test_synth_flags_set_their_config_fields():
    def parse(*flags):
        args = cli.build_parser().parse_args(["synth", "--out", "o", *flags])
        return SynthConfig(**cli._fields(args, SynthConfig))

    assert parse() == SynthConfig()
    assert parse(
        "--sentences", "7", "--languages", "3", "--vocab", "20", "--len-min", "2",
        "--len-max", "5", "--edge-drop", "0.1", "--edge-noise", "0.2", "--seed", "4",
        "--test-size", "2",
    ) == SynthConfig(
        n_sentences=7, n_languages=3, vocab=20, len_min=2, len_max=5,
        edge_drop_rate=0.1, edge_noise_rate=0.2, seed=4, n_test=2,
    )


def test_pipeline_without_pair_fails_before_any_stage(tmp_path):
    from mpalign.pipeline import run_pipeline as run

    cfg = PipelineConfig(data_dir=str(tmp_path), out_dir=str(tmp_path / "o"))
    with pytest.raises(ValueError, match="needs a language pair"):
        run(cfg)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [()], ids=["global"])
def test_align_featurizes_as_checkpoint_records(synth_dir, tmp_path, extra):
    # trained enough that featurizing with another LPC seed base (align's
    # default 0, not the checkpoint's 13) changes its links
    run = tmp_path / "run"
    extra = ("--hidden", "64", "--epochs", "3", *extra)
    assert run_pipeline(synth_dir, run, seed="13", extra=extra) == 0
    aligned = tmp_path / "cli.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(run / "model.mpwa"),
        "--pair", "l00,l01", "--out", str(aligned),
        "--test-ids", str(synth_dir / "test_ids.txt"),
    ])
    assert rc == 0
    assert aligned.read_bytes() == (run / "l00-l01.tgdfa.align").read_bytes()


def test_eval_with_bins(synth_dir, tmp_path):
    run = tmp_path / "run"
    assert run_pipeline(synth_dir, run) == 0
    rc = main([
        "eval", "--pred", str(run / "l00-l01.tgdfa.align"),
        "--gold", str(synth_dir / "l00-l01.gold"), "--pair", "l00,l01",
        "--bins", "4", "--data", str(synth_dir),
        "--out", str(tmp_path / "eval_bins.tsv"),
    ])
    assert rc == 0
    header = (tmp_path / "eval_bins.tsv").read_text().splitlines()[0]
    assert header.endswith("f1_bin1\tf1_bin2\tf1_bin3\tf1_bin4")


def test_eval_refuses_a_negative_bin_count(synth_dir, tmp_path, capsys):
    out = tmp_path / "eval.tsv"
    rc = main([
        "eval", "--pred", str(synth_dir / "l00-l01.align"),
        "--gold", str(synth_dir / "l00-l01.gold"), "--pair", "l00,l01",
        "--bins", "-2", "--data", str(synth_dir), "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: --bins must be at least 0, not -2\n"
    assert not out.exists()


def test_project_command(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "yor.txt").write_text("v1\tt1 t2 t3\n")
    (data / "eng.txt").write_text("v1\tthe dog runs\n")
    (data / "eng.pos").write_text("v1\tthe/DET dog/NOUN runs/VERB\n")
    (data / "t.align").write_text("v1\t0-0 1-1 2-2\n")
    out = tmp_path / "out.conll"
    rc = main([
        "project", "--data", str(data), "--target", "yor",
        "--sources", "eng", "--alignments", str(data / "t.align"),
        "--tags", str(data / "eng.pos"), "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text() == "t1\tDET\nt2\tNOUN\nt3\tVERB\n\n"


def test_project_x_filter(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "yor.txt").write_text("v1\tt1 t2 t3 t4\n")
    (data / "eng.txt").write_text("v1\tthe dog\n")
    (data / "eng.pos").write_text("v1\tthe/DET dog/NOUN\n")
    (data / "t.align").write_text("v1\t0-0\n")  # 3 of 4 tokens -> X
    out = tmp_path / "out.conll"
    rc = main([
        "project", "--data", str(data), "--target", "yor",
        "--sources", "eng", "--alignments", str(data / "t.align"),
        "--tags", str(data / "eng.pos"), "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text() == ""  # sentence dropped by the X filter


def test_project_swap_reads_source_target_files(tmp_path):
    """Source-target files with --swap project as target-source files do
    without it."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "yor.txt").write_text("v1\tt1 t2 t3\nv2\tu1 u2\n")
    (data / "eng.txt").write_text("v1\tthe dog\nv2\truns fast\n")
    (data / "fra.txt").write_text("v1\tle chien court\nv2\tvite\n")
    (data / "eng.pos").write_text("v1\tthe/DET dog/NOUN\nv2\truns/VERB fast/ADV\n")
    (data / "fra.pos").write_text("v1\tle/DET chien/NOUN court/VERB\nv2\tvite/ADV\n")
    (data / "yor-eng.ts").write_text("v1\t0-1 2-0\nv2\t1-0\n")
    (data / "yor-fra.ts").write_text("v1\t0-2 1-1 2-0\nv2\t0-0\n")
    (data / "eng-yor.st").write_text("v1\t1-0 0-2\nv2\t0-1\n")
    (data / "fra-yor.st").write_text("v1\t2-0 1-1 0-2\nv2\t0-0\n")

    def project(eng_links, fra_links, *extra):
        out = tmp_path / "out.conll"
        rc = main([
            "project", "--data", str(data), "--target", "yor", "--sources", "eng,fra",
            "--alignments", f"{data / eng_links},{data / fra_links}",
            "--tags", f"{data / 'eng.pos'},{data / 'fra.pos'}", "--out", str(out), *extra,
        ])
        assert rc == 0
        return out.read_text()

    expected = project("yor-eng.ts", "yor-fra.ts")
    assert expected == "t1\tNOUN\nt2\tNOUN\nt3\tDET\n\nu1\tADV\nu2\tVERB\n\n"
    assert project("eng-yor.st", "fra-yor.st", "--swap") == expected


TAGS = "v1\tthe/DET dog/NOUN runs/VERB\n"


@pytest.mark.parametrize(
    "align_text, tags_text, message",
    [
        ("v1\t0-0 7-1\n", TAGS, "t.align:1: link '7-1' is outside its sentence"),
        ("v9\t0-0\n", TAGS, "t.align:1: sentence 'v9' is not in the corpus"),
        ("v1\t0-0 1-1 2-2\n", "v1\tthe/DET dog/NOUN\n",
         "eng.pos: sentence 'v1' has 2 tagged tokens, but 3 in the eng corpus"),
    ],
    ids=["link-outside-sentence", "unknown-sentence", "short-tag-sentence"],
)
def test_project_checks_its_inputs_against_the_corpus(
    tmp_path, capsys, align_text, tags_text, message
):
    data = tmp_path / "data"
    data.mkdir()
    (data / "yor.txt").write_text("v1\tt1 t2 t3\n")
    (data / "eng.txt").write_text("v1\tthe dog runs\n")
    (data / "eng.pos").write_text(tags_text)
    (data / "t.align").write_text(align_text)
    out = tmp_path / "out.conll"
    rc = main([
        "project", "--data", str(data), "--target", "yor",
        "--sources", "eng", "--alignments", str(data / "t.align"),
        "--tags", str(data / "eng.pos"), "--out", str(out),
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_project_swap_checks_the_file_in_its_own_language_order(tmp_path, capsys):
    # a source-target link 2-0 lies inside eng (3 tokens) and yor (1 token);
    # read in target-source order it would point past yor's one token
    data = tmp_path / "data"
    data.mkdir()
    (data / "yor.txt").write_text("v1\tt1\n")
    (data / "eng.txt").write_text("v1\tthe dog runs\n")
    (data / "eng.pos").write_text(TAGS)
    (data / "eng-yor.st").write_text("v1\t2-0\n")
    out = tmp_path / "out.conll"
    argv = [
        "project", "--data", str(data), "--target", "yor", "--sources", "eng",
        "--alignments", str(data / "eng-yor.st"), "--tags", str(data / "eng.pos"),
        "--out", str(out),
    ]
    assert main([*argv, "--swap"]) == 0
    assert out.read_text() == "t1\tVERB\n\n"
    assert main(argv) == 1
    assert "eng-yor.st:1: link '2-0' is outside its sentence" in capsys.readouterr().err


def test_stage_error_exit_code(tmp_path):
    rc = main([
        "pipeline", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
        "--pair", "a,b",
    ])
    assert rc == 1


def test_bad_ablation_fails_before_any_stage(tmp_path):
    from mpalign.pipeline import PipelineConfig, run_pipeline as run

    with pytest.raises(ValueError, match=r"unknown ablation block\(s\): \['syntax'\]"):
        cfg = PipelineConfig(data_dir=str(tmp_path), out_dir=str(tmp_path / "o"),
                             pair=("a", "b"), ablate=("syntax",))
        run(cfg)
    assert not (tmp_path / "o").exists()


def test_same_language_alignment_file_rejected(synth_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / "l00-l00.align").write_text("v00000\t0-0 0-1\n")
    rc = run_pipeline(data, tmp_path / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert "l00-l00.align pairs l00 with itself" in err


def test_one_pair_in_two_alignment_files_is_refused(synth_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / "l01-l00.align").write_text("v00000\t0-0\n")
    run = tmp_path / "run"
    assert run_pipeline(data, run) == 1
    assert (
        f"alignment files {data / 'l00-l01.align'} and {data / 'l01-l00.align'} "
        "both align l01 with l00" in capsys.readouterr().err
    )
    assert not (run / "model.mpwa").exists()


def edited_copy(synth_dir, tmp_path, name, edit) -> tuple[Path, Path]:
    """A copy of the synth corpus whose file *name* is rewritten by *edit*."""
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    path = data / name
    path.write_text(edit(path.read_text()))
    return data, path


def test_pipeline_refuses_an_align_line_for_a_sentence_the_corpus_lacks(
    synth_dir, tmp_path, capsys
):
    data, path = edited_copy(
        synth_dir, tmp_path, "l00-l01.align", lambda text: text.replace("v00000\t", "zzz\t", 1)
    )
    run = tmp_path / "run"
    assert run_pipeline(data, run) == 1
    assert f"{path}:1: sentence 'zzz' is not in the corpus" in capsys.readouterr().err
    assert not (run / "model.mpwa").exists()


def test_inputs_refuse_links_into_a_missing_language_but_not_an_empty_line(
    synth_dir, tmp_path
):
    # v00000 keeps its l00 and l01 text, so it stays in the corpus without l02
    data, _ = edited_copy(synth_dir, tmp_path, "l02.txt", lambda text: text.split("\n", 1)[1])
    message = f"{data / 'l00-l02.align'}:1: sentence 'v00000' has no l02 text"
    with pytest.raises(ValueError, match=re.escape(message)):
        pl.load_inputs(data)
    for name in ("l00-l02.align", "l01-l02.align"):
        path = data / name
        path.write_text(re.sub(r"^v00000\t.*$", "v00000\t", path.read_text(), count=1,
                               flags=re.M))
    corpus, asets = pl.load_inputs(data)
    assert sorted(corpus.sentences["v00000"]) == ["l00", "l01"]
    assert {a.lang_pair: bool(a.links["v00000"]) for a in asets} == {
        ("l00", "l01"): True, ("l00", "l02"): False, ("l01", "l02"): False,
    }


def test_gold_link_outside_its_sentence_is_refused(synth_dir, tmp_path, capsys):
    sid = (synth_dir / "test_ids.txt").read_text().split()[0]
    lines = (synth_dir / "l00-l01.gold").read_text().splitlines()
    line_no = next(k for k, line in enumerate(lines, 1) if line.startswith(f"{sid}\t"))
    lines[line_no - 1] += " 40-40"
    gold = tmp_path / "outside.gold"
    gold.write_text("\n".join(lines) + "\n")
    message = f"{gold}:{line_no}: link '40-40' is outside its sentence"

    run = tmp_path / "run"
    rc = main([
        "pipeline", "--data", str(synth_dir), "--out", str(run), "--pair", "l00,l01",
        "--gold", str(gold), "--train-ids", str(synth_dir / "train_ids.txt"),
        "--test-ids", str(synth_dir / "test_ids.txt"), "--hidden", "32", "--seed", "3",
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (run / "communities_gmc.tsv").exists()  # refused before any stage

    argv = ["eval", "--pred", str(synth_dir / "l00-l01.align"), "--gold", str(gold),
            "--pair", "l00,l01"]
    assert main([*argv, "--data", str(synth_dir)]) == 1
    assert message in capsys.readouterr().err
    assert main(argv) == 0  # without the corpus there is nothing to check against


def test_cli_import_loads_no_csgraph_or_sparse_linalg():
    """Each is imported inside the one function that uses it:
    ``kernels.connected_component_labels``, and the sparse SVD of a
    co-occurrence matrix past ``features.SVD_DENSE_CUTOFF``."""
    code = (
        "import sys, scipy.sparse; before = set(sys.modules); import mpalign.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "mpalign.cli" in loaded
    assert [m for m in loaded if m.startswith(("scipy.sparse.csgraph", "scipy.sparse.linalg"))] == []


@pytest.fixture(scope="module")
def trained_model(synth_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("model")
    rc = main([
        "train", "--data", str(synth_dir), "--out", str(run),
        "--train-ids", str(synth_dir / "train_ids.txt"), "--hidden", "32", "--seed", "3",
    ])
    assert rc == 0
    return run / "model.mpwa"


def align(data, model, pair, out):
    return main([
        "align", "--data", str(data), "--model", str(model), "--pair", pair,
        "--out", str(out), "--test-ids", str(data / "test_ids.txt"),
    ])


def test_align_refuses_pair_language_missing_from_corpus(
    synth_dir, trained_model, tmp_path, capsys
):
    out = tmp_path / "x.align"
    assert align(synth_dir, trained_model, "l00,l09", out) == 1
    err = capsys.readouterr().err
    assert "'l09'" in err
    assert "corpus (l00, l01, l02)" in err and "checkpoint (l00, l01, l02)" in err
    assert not out.exists()


def test_align_refuses_pair_language_missing_from_checkpoint(
    synth_dir, trained_model, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    shutil.copy(data / "l02.txt", data / "l03.txt")
    shutil.copy(data / "l00-l02.align", data / "l00-l03.align")
    out = tmp_path / "x.align"
    assert align(data, trained_model, "l03,l00", out) == 1
    err = capsys.readouterr().err
    assert "'l03'" in err
    assert "corpus (l00, l01, l02, l03)" in err and "checkpoint (l00, l01, l02)" in err
    assert not out.exists()


def test_align_reports_the_sentences_it_aligned(synth_dir, trained_model, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    test_ids = (data / "test_ids.txt").read_text().split()
    dropped = set(test_ids[:3])
    # the l02 text of three sentences goes, and with it their l02 links
    for name in ("l02.txt", "l00-l02.align", "l01-l02.align"):
        lines = (data / name).read_text().splitlines(keepends=True)
        (data / name).write_text(
            "".join(line for line in lines if line.split("\t")[0] not in dropped)
        )
    out = tmp_path / "x.align"
    capsys.readouterr()
    assert align(data, trained_model, "l00,l02", out) == 0
    n = len(test_ids) - len(dropped)
    assert f"aligned {n} sentences" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == n


def test_orig_links_join_the_union_end_to_end(synth_dir, tmp_path):
    """`pipeline --orig F` names its links and eval row after tgdfa+orig and
    `align --orig F` reproduces them; without --orig both say tgdfa."""
    orig = synth_dir / "l00-l01.align"
    run = tmp_path / "run"

    def methods():
        return [row.split("\t")[0] for row in (run / "eval.tsv").read_text().splitlines()]

    assert run_pipeline(synth_dir, run, extra=("--orig", str(orig))) == 0
    with_orig = run / "l00-l01.tgdfa-orig.align"
    assert methods() == ["method", "input", "gnn-tgdfa+orig"]
    assert not (run / "l00-l01.tgdfa.align").exists()
    aligned = tmp_path / "cli.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(run / "model.mpwa"),
        "--pair", "l00,l01", "--out", str(aligned), "--orig", str(orig),
        "--test-ids", str(synth_dir / "test_ids.txt"),
    ])
    assert rc == 0
    assert aligned.read_bytes() == with_orig.read_bytes()

    assert run_pipeline(synth_dir, run) == 0
    assert methods() == ["method", "input", "gnn-tgdfa"]
    assert (run / "l00-l01.tgdfa.align").read_bytes() != with_orig.read_bytes()


def test_eval_scores_the_input_alignments_of_a_reversed_pair(synth_dir, tmp_path):
    """`pipeline --pair l01,l00` scores the links of l00-l01.align swapped
    against the swapped gold, and so gives the forward pair's input row."""
    gold = tmp_path / "l01-l00.gold"
    forward_gold = (synth_dir / "l00-l01.gold").read_text()
    gold.write_text(re.sub(r"(\d+)([-?])(\d+)", r"\3\2\1", forward_gold))
    forward, reverse = tmp_path / "forward", tmp_path / "reverse"
    assert run_pipeline(synth_dir, forward) == 0
    reversed_pair = ("--pair", "l01,l00", "--gold", str(gold))
    assert run_pipeline(synth_dir, reverse, extra=reversed_pair) == 0

    def input_row(run):
        return (run / "eval.tsv").read_text().splitlines()[1]

    assert input_row(reverse).startswith("input\t")
    assert input_row(reverse) == input_row(forward)


def test_align_refuses_an_orig_link_outside_its_sentence(
    synth_dir, trained_model, tmp_path, capsys, monkeypatch
):
    sid = (synth_dir / "test_ids.txt").read_text().split()[0]
    orig = tmp_path / "orig.align"
    orig.write_text(f"{sid}\t40-40\n")
    featurized = []
    monkeypatch.setattr(pl, "featurize", lambda *args: featurized.append(args))
    out = tmp_path / "x.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(trained_model),
        "--pair", "l00,l01", "--out", str(out), "--orig", str(orig),
        "--test-ids", str(synth_dir / "test_ids.txt"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{orig}:1: link '40-40' is outside its sentence" in err
    assert featurized == []
    assert not out.exists()


def test_pipeline_refuses_pair_language_missing_from_corpus(synth_dir, tmp_path, capsys):
    rc = main([
        "pipeline", "--data", str(synth_dir), "--out", str(tmp_path / "run"),
        "--pair", "l00,l09", "--train-ids", str(synth_dir / "train_ids.txt"),
        "--test-ids", str(synth_dir / "test_ids.txt"), "--hidden", "32", "--seed", "3",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'l09'" in err and "corpus (l00, l01, l02)" in err
    run = tmp_path / "run"
    assert not (run / "l00-l09.tgdfa.align").exists()
    # refused before any stage ran
    for name in ("communities_gmc.tsv", "communities_lpc.tsv", "features", "model.mpwa"):
        assert not (run / name).exists()


def test_align_builds_only_the_graphs_it_aligns(
    synth_dir, trained_model, tmp_path, monkeypatch
):
    built = count_built_graphs(monkeypatch)
    out = tmp_path / "x.align"
    assert align(synth_dir, trained_model, "l00,l01", out) == 0
    test_ids = (synth_dir / "test_ids.txt").read_text().split()
    assert built == test_ids
    # the same links as an align over every sentence's graph
    monkeypatch.undo()
    corpus, asets = pl.load_inputs(synth_dir)
    cfg = PipelineConfig(data_dir=str(synth_dir), out_dir=str(tmp_path), pair=("l00", "l01"))
    whole = tmp_path / "whole.align"
    graphs = pl.build_all_graphs(corpus, asets)
    pl.align_with_model(trained_model, graphs, corpus, test_ids, cfg, whole)
    assert out.read_bytes() == whole.read_bytes()


@pytest.fixture
def unknown_ids(tmp_path):
    path = tmp_path / "unknown_ids.txt"
    path.write_text("nope-1\nnope-2\n")
    return path


def test_align_refuses_an_empty_selection(
    synth_dir, trained_model, tmp_path, unknown_ids, capsys
):
    out = tmp_path / "x.align"
    rc = main([
        "align", "--data", str(synth_dir), "--model", str(trained_model),
        "--pair", "l00,l01", "--out", str(out), "--test-ids", str(unknown_ids),
    ])
    assert rc == 1
    assert f"{unknown_ids}: none of its 2 sentence ids" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_an_empty_selection(synth_dir, tmp_path, unknown_ids, capsys):
    run = tmp_path / "run"
    rc = main([
        "train", "--data", str(synth_dir), "--out", str(run),
        "--train-ids", str(unknown_ids), "--hidden", "32",
    ])
    assert rc == 1
    assert f"{unknown_ids}: none of its 2 sentence ids" in capsys.readouterr().err
    assert not (run / "model.mpwa").exists()


@pytest.mark.parametrize("which", ["train", "test"])
def test_pipeline_refuses_an_empty_selection(synth_dir, tmp_path, unknown_ids, capsys, which):
    ids = {"train": synth_dir / "train_ids.txt", "test": synth_dir / "test_ids.txt"}
    ids[which] = unknown_ids
    run = tmp_path / "run"
    rc = main([
        "pipeline", "--data", str(synth_dir), "--out", str(run), "--pair", "l00,l01",
        "--gold", str(synth_dir / "l00-l01.gold"), "--train-ids", str(ids["train"]),
        "--test-ids", str(ids["test"]), "--hidden", "32", "--seed", "3",
    ])
    assert rc == 1
    assert f"{unknown_ids}: none of its 2 sentence ids" in capsys.readouterr().err
    assert not (run / "eval.tsv").exists() and not (run / "model.mpwa").exists()

@pytest.mark.parametrize("command", ["train", "features"])
def test_commands_build_only_the_graphs_they_select(
    synth_dir, tmp_path, monkeypatch, command
):
    built = count_built_graphs(monkeypatch)
    extra = ["--hidden", "32", "--epochs", "1"] if command == "train" else []
    rc = main([
        command, "--data", str(synth_dir), "--out", str(tmp_path / "run"),
        "--train-ids", str(synth_dir / "train_ids.txt"), *extra,
    ])
    assert rc == 0
    assert built == (synth_dir / "train_ids.txt").read_text().split()


def test_build_graph_refuses_an_unknown_sentence(synth_dir, tmp_path, capsys):
    out = tmp_path / "graphs.txt"
    rc = main(["build-graph", "--data", str(synth_dir), "--out", str(out),
               "--sentence", "nope"])
    assert rc == 1
    assert "sentence 'nope' is not in the corpus" in capsys.readouterr().err
    assert not out.exists()


def test_train_reports_the_sentences_it_trained_on(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    rc = main([
        "train", "--data", str(synth_dir), "--out", str(run),
        "--train-ids", str(synth_dir / "train_ids.txt"), "--hidden", "32",
        "--epochs", "1", "--train-sample", "2",
    ])
    assert rc == 0
    assert "trained on 2 sentences" in capsys.readouterr().out
    assert json.loads((run / "train_log.json").read_text())["n_sentences"] == 2


def test_eval_refuses_an_empty_gold_file(synth_dir, tmp_path, capsys):
    gold = tmp_path / "empty.gold"
    gold.write_text("")
    pred = tmp_path / "pred.align"
    pred.write_text("")
    rc = main(["eval", "--pred", str(pred), "--gold", str(gold), "--pair", "l00,l01"])
    assert rc == 1
    assert f"{gold}: no gold sentence to score" in capsys.readouterr().err


def test_pipeline_refuses_gold_without_test_sentences(synth_dir, tmp_path, capsys):
    test_ids = (synth_dir / "test_ids.txt").read_text().split()
    gold = tmp_path / "train_only.gold"
    gold.write_text("".join(
        line for line in (synth_dir / "l00-l01.gold").read_text().splitlines(keepends=True)
        if line.split("\t")[0] not in test_ids
    ))
    run = tmp_path / "run"
    rc = main([
        "pipeline", "--data", str(synth_dir), "--out", str(run), "--pair", "l00,l01",
        "--gold", str(gold), "--train-ids", str(synth_dir / "train_ids.txt"),
        "--test-ids", str(synth_dir / "test_ids.txt"), "--hidden", "32", "--seed", "3",
        "--epochs", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{gold}: none of its" in err and "is a test sentence" in err
    # refused before any stage ran
    for name in ("communities_gmc.tsv", "communities_lpc.tsv", "model.mpwa", "eval.tsv"):
        assert not (run / name).exists()


def test_inputs_refuse_a_txt_file_no_alignment_names(synth_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    stray = data / "bad_ids.txt"
    stray.write_text("v00000\nv00001\n")
    with pytest.raises(ValueError, match=f"{stray}: no <a>-<b>.align file names"):
        pl.load_inputs(data)
    run = tmp_path / "run"
    assert run_pipeline(data, run) == 1
    err = capsys.readouterr().err
    assert f"{stray}: no <a>-<b>.align file names language 'bad_ids'" in err
    assert not (run / "model.mpwa").exists()


def test_eval_test_ids_scores_what_the_pipeline_scores(synth_dir, tmp_path, capsys):
    """`align --test-ids` then `eval --test-ids` gives the pipeline's eval.tsv;
    without --test-ids, the gold sentences that have no line are counted."""
    run = tmp_path / "run"
    assert run_pipeline(synth_dir, run) == 0
    aligned = tmp_path / "test.align"
    assert align(synth_dir, run / "model.mpwa", "l00,l01", aligned) == 0
    capsys.readouterr()
    argv = [
        "eval", "--pred", f"{synth_dir / 'l00-l01.align'},{aligned}",
        "--names", "input,gnn-tgdfa", "--gold", str(synth_dir / "l00-l01.gold"),
        "--pair", "l00,l01",
    ]
    assert main([*argv, "--test-ids", str(synth_dir / "test_ids.txt")]) == 0
    out, err = capsys.readouterr()
    assert out == (run / "eval.tsv").read_text()
    assert err == ""

    assert main(argv) == 0
    out, err = capsys.readouterr()
    n_gold = len((synth_dir / "l00-l01.gold").read_text().splitlines())
    n_test = len((synth_dir / "test_ids.txt").read_text().split())
    assert f"{aligned}: {n_gold - n_test} of {n_gold} gold sentences have no line" in err
    assert "l00-l01.align:" not in err
    assert out != (run / "eval.tsv").read_text()


def test_eval_refuses_test_ids_without_gold_sentences(synth_dir, unknown_ids, capsys):
    rc = main([
        "eval", "--pred", str(synth_dir / "l00-l01.align"),
        "--gold", str(synth_dir / "l00-l01.gold"), "--pair", "l00,l01",
        "--test-ids", str(unknown_ids),
    ])
    assert rc == 1
    assert f"{unknown_ids}: none of its 2 sentence ids" in capsys.readouterr().err


def test_eval_bins_refuses_a_gold_sentence_the_corpus_lacks(synth_dir, tmp_path, capsys):
    gold = tmp_path / "extra.gold"
    gold.write_text((synth_dir / "l00-l01.gold").read_text() + "zzz999\t0-0\n")
    rc = main([
        "eval", "--pred", str(synth_dir / "l00-l01.align"), "--gold", str(gold),
        "--pair", "l00,l01", "--bins", "4", "--data", str(synth_dir),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {gold}: gold sentence 'zzz999' is not in the corpus under {synth_dir}\n"
    )


def test_eval_needs_pair(synth_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--pred", str(synth_dir / "l00-l01.align"),
              "--gold", str(synth_dir / "l00-l01.gold")])
    assert exc.value.code == 2
    assert "--pair" in capsys.readouterr().err


def test_eval_refuses_a_predicted_link_outside_its_sentence(synth_dir, tmp_path, capsys):
    """With --data, each --pred file is checked as the input alignments are:
    a link the frequency bins would drop is not counted in the totals."""
    sid = (synth_dir / "test_ids.txt").read_text().split()[0]
    lines = (synth_dir / "l00-l01.align").read_text().splitlines()
    line_no = next(k for k, line in enumerate(lines, 1) if line.startswith(f"{sid}\t"))
    lines[line_no - 1] += " 40-40"
    pred = tmp_path / "outside.align"
    pred.write_text("\n".join(lines) + "\n")
    argv = ["eval", "--pred", str(pred), "--gold", str(synth_dir / "l00-l01.gold"),
            "--pair", "l00,l01"]
    assert main([*argv, "--data", str(synth_dir), "--bins", "2"]) == 1
    assert f"{pred}:{line_no}: link '40-40' is outside its sentence" in capsys.readouterr().err
    assert main(argv) == 0  # without the corpus there is nothing to check against


# flags README.md names for tools other than mpalign: pip's, and the
# benchmark scripts' (each script must still define the flag)
FOREIGN_FLAGS = {
    "--no-build-isolation": [],
    "--json": ["benchmarks/bench_kernels.py", "benchmarks/bench_train_step.py"],
}


def test_every_flag_the_readme_names_is_accepted():
    import argparse

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        flag
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for flag in action.option_strings
    }
    for flag, scripts in FOREIGN_FLAGS.items():
        assert flag not in accepted, flag
        for script in scripts:
            assert f'"{flag}"' in (root / script).read_text(), (flag, script)
    assert named - accepted - set(FOREIGN_FLAGS) == set()


UNTRAINABLE = [
    ("--epochs", "0", "epochs must be at least 1, not 0"),
    ("--batch-size", "0", "batch_size must be at least 1, not 0"),
    ("--hidden", "0", "hidden must be at least 1, not 0"),
    ("--train-sample", "0", "train_sample must be at least 1, not 0"),
    ("--lr", "-1", "lr must be positive and finite, not -1.0"),
    ("--lr", "nan", "lr must be positive and finite, not nan"),
    ("--ablate", "centrality,community,position,language,word",
     "ablate must keep one of the blocks centrality, community, position, language, word"),
]


@pytest.mark.parametrize(
    "flag,value,message", UNTRAINABLE, ids=[f"{f[2:]}={v}" for f, v, _ in UNTRAINABLE]
)
@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_settings_that_cannot_train_are_refused_before_any_stage(
    synth_dir, tmp_path, capsys, command, flag, value, message
):
    run = tmp_path / "run"
    pair = ["--pair", "l00,l01"] if command == "pipeline" else []
    rc = main([
        command, "--data", str(synth_dir), "--out", str(run), *pair,
        "--train-ids", str(synth_dir / "train_ids.txt"), "--hidden", "32", flag, value,
    ])
    assert rc == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["align", "pipeline"])
def test_an_alpha_that_is_not_finite_is_refused_before_any_stage(
    synth_dir, trained_model, tmp_path, capsys, command, value
):
    out = tmp_path / ("x.align" if command == "align" else "run")
    model = ["--model", str(trained_model)] if command == "align" else []
    rc = main([
        command, "--data", str(synth_dir), "--out", str(out), "--pair", "l00,l01",
        "--test-ids", str(synth_dir / "test_ids.txt"), *model, "--alpha", value,
    ])
    assert rc == 1
    assert f"error: alpha must be positive and finite, not {value}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_an_id_file_that_lists_a_sentence_twice_is_refused(
    synth_dir, tmp_path, capsys, command
):
    ids = (synth_dir / "train_ids.txt").read_text().split()
    listed = tmp_path / "ids.txt"
    listed.write_text("\n".join([*ids[:3], "", ids[1], *ids[3:]]) + "\n")
    run = tmp_path / "run"
    pair = ["--pair", "l00,l01"] if command == "pipeline" else []
    rc = main([
        command, "--data", str(synth_dir), "--out", str(run), *pair,
        "--train-ids", str(listed), "--hidden", "32",
    ])
    assert rc == 1
    assert (
        f"{listed}:5: sentence id {ids[1]!r} is listed again (first on line 2)"
        in capsys.readouterr().err
    )
    assert not (run / "model.mpwa").exists()
