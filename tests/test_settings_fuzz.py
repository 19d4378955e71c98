"""Settings fuzzing: ``mpalign pipeline`` on a 12-sentence, 3-language synth
corpus under drawn settings. A case with a setting that cannot run exits 1
with a message that names that setting (or its file) and leaves nothing
under ``--out``; a case whose settings can all run exits 0 with the key of
every stage written.

Each case draws which settings to spoil, then draws every setting from its
runnable or its unrunnable values, so the expected outcome follows from the
draw."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mpalign.cli import main
from mpalign.corpus import load_pharaoh, write_pharaoh
from mpalign.features import BLOCK_WIDTHS

LANGUAGES = ("l00", "l01", "l02")
UNKNOWN_LANGUAGE = "l09"
UNKNOWN_ID = "nope"
IDS = [f"v{k:05d}" for k in range(12)]
BAD_RATES = (0.0, -1e-3, -1.0, math.inf, -math.inf, math.nan)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The synth corpus in ``data/``, and beside it ``gold.txt``: a gold link
    0-0 lies in every sentence of every language pair. ``orig/<a>-<b>.align``
    holds the input links of each ordered pair of languages."""
    out = tmp_path_factory.mktemp("settings")
    assert main([
        "synth", "--out", str(out / "data"), "--sentences", "12", "--languages", "3",
        "--vocab", "20", "--len-min", "3", "--len-max", "6", "--seed", "5",
        "--test-size", "3",
    ]) == 0
    (out / "gold.txt").write_text("".join(f"{sid}\t0-0\n" for sid in IDS))
    (out / "orig").mkdir()
    for path in (out / "data").glob("*.align"):
        aset = load_pharaoh(path, tuple(path.stem.split("-")))
        for links in (aset, aset.swapped()):
            write_pharaoh(links, out / "orig" / f"{'-'.join(links.lang_pair)}.align")
    return out


def id_lists(ids, spoiled):
    """Id lists that select a known sentence, or (spoiled) that list one id
    twice or select none; unknown ids may join either kind."""
    known = st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True)
    unknown = st.lists(st.just(UNKNOWN_ID), max_size=1)
    if not spoiled:
        return st.tuples(known, unknown).map(lambda t: t[0] + t[1])
    twice = known.flatmap(lambda xs: st.sampled_from(xs).map(lambda x: xs + [x]))
    return st.one_of(twice, unknown)


@st.composite
def cases(draw):
    names = ("hidden", "epochs", "batch_size", "lr", "alpha", "ablate", "pair",
             "train_ids", "test_ids", "eval_bins", "orig")
    spoiled = draw(st.sets(st.sampled_from(names), max_size=3), label="spoiled")

    def pick(name, good, bad):
        return draw(bad if name in spoiled else good, label=name)

    blocks = sorted(BLOCK_WIDTHS)
    distinct = st.permutations(LANGUAGES).map(lambda p: tuple(p[:2]))
    unrunnable_pair = st.one_of(
        st.sampled_from(LANGUAGES).map(lambda lang: (lang, lang)),
        st.tuples(st.sampled_from(LANGUAGES), st.just(UNKNOWN_LANGUAGE)),
    )
    return {
        "spoiled": spoiled,
        "hidden": pick("hidden", st.integers(1, 16), st.just(0)),
        "epochs": pick("epochs", st.integers(1, 2), st.just(0)),
        "batch_size": pick("batch_size", st.integers(1, 500), st.just(0)),
        # a finite lr above 0.1 can make training diverge, a failure of the
        # run rather than of a setting
        "lr": pick("lr", st.floats(1e-4, 0.1), st.sampled_from(BAD_RATES)),
        "alpha": pick("alpha", st.floats(0.1, 20.0), st.sampled_from(BAD_RATES)),
        "ablate": pick(
            "ablate", st.sets(st.sampled_from(blocks), max_size=len(blocks) - 1),
            st.just(set(blocks)),
        ),
        "pair": pick("pair", distinct, unrunnable_pair),
        "eval_bins": pick("eval_bins", st.sampled_from((0, 2)), st.just(-1)),
        # a copy of the pair's input links, a missing file, or a link that
        # lies outside its sentence
        "orig": pick("orig", st.sampled_from((None, "copy")),
                     st.sampled_from(("missing", "outside"))),
        "train_ids": draw(id_lists(IDS, "train_ids" in spoiled), label="train_ids"),
        "test_ids": draw(id_lists(IDS, "test_ids" in spoiled), label="test_ids"),
    }


def case(spoiled=(), **changed):
    """A case that runs, with *changed* settings and *spoiled* naming those
    that cannot."""
    return {
        "spoiled": set(spoiled), "hidden": 4, "epochs": 1, "batch_size": 8, "lr": 0.01,
        "alpha": 2.0, "ablate": set(), "pair": ("l00", "l01"), "eval_bins": 0, "orig": None,
        "train_ids": ["v00000", "v00001", "v00002"], "test_ids": ["v00009", "v00010"],
        **changed,
    }


def stage_keys(out: Path, pair, method: str) -> list[Path]:
    return [
        out / "communities_gmc.tsv.key",
        out / "features" / "standardizer.json.key",
        out / "model.mpwa.key",
        out / f"{pair[0]}-{pair[1]}.{method}.align.key",
        out / "eval.tsv.key",
    ]


@given(c=cases())
@example(c=case(["ablate"], ablate=set(BLOCK_WIDTHS)))
@example(c=case(["alpha"], alpha=math.nan))
@example(c=case(["alpha"], alpha=math.inf))
@example(c=case(["eval_bins"], eval_bins=-1))
@example(c=case(["orig"], orig="missing"))
@example(c=case(["orig"], orig="outside"))
@example(c=case(orig="copy", pair=("l01", "l00"), eval_bins=2))
@example(c=case())
def test_a_setting_is_refused_before_any_stage_or_the_run_completes(base, c):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name in ("train_ids", "test_ids"):
            files[name] = Path(tmp) / f"{name}.txt"
            files[name].write_text("".join(f"{sid}\n" for sid in c[name]))
        if c["orig"] == "copy":
            files["orig"] = base / "orig" / f"{c['pair'][0]}-{c['pair'][1]}.align"
        elif c["orig"]:
            files["orig"] = Path(tmp) / f"{c['orig']}.align"
        if c["orig"] == "outside":
            files["orig"].write_text(f"{IDS[0]}\t0-99\n")
        out = Path(tmp) / "run"
        argv = [
            "pipeline", "--data", str(base / "data"), "--out", str(out),
            "--gold", str(base / "gold.txt"), "--pair", ",".join(c["pair"]),
            "--train-ids", str(files["train_ids"]),
            "--test-ids", str(files["test_ids"]),
            "--hidden", str(c["hidden"]), "--epochs", str(c["epochs"]),
            "--batch-size", str(c["batch_size"]), f"--lr={c['lr']!r}",
            f"--alpha={c['alpha']!r}", "--eval-bins", str(c["eval_bins"]),
        ]
        if c["ablate"]:
            argv += ["--ablate", ",".join(sorted(c["ablate"]))]
        if c["orig"]:
            argv += ["--orig", str(files["orig"])]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        err = stderr.getvalue()
        if not c["spoiled"]:
            assert rc == 0, err
            method = "tgdfa-orig" if c["orig"] else "tgdfa"
            assert all(key.exists() for key in stage_keys(out, c["pair"], method))
            return
        assert rc == 1
        named = [str(files[n]) if n in files else n for n in c["spoiled"]]
        if c["orig"] == "missing":
            named.append(f"[Errno 2] No such file or directory: '{files['orig']}'")
        assert any(err.startswith(f"error: {name}") for name in named), (named, err)
        assert not out.exists()
