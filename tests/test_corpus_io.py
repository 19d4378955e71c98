import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mpalign.corpus import (
    CorpusFormatError,
    load_corpus,
    load_gold,
    load_pharaoh,
    load_pos_tagged,
    write_gold,
    write_pharaoh,
)
from mpalign.features import FeatureStandardizer
from mpalign.gnn import TrainConfig, init_params


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_intersection_semantics(self, tmp_path):
        paths = {
            "eng": write(tmp_path, "eng.txt", "v1\ta b\nv2\tc\n"),
            "fra": write(tmp_path, "fra.txt", "v1\tx\nv2\ty z\n"),
            "deu": write(tmp_path, "deu.txt", "v1\tq\n"),
        }
        corpus = load_corpus(paths)
        assert set(corpus.sentences) == {"v1", "v2"}
        assert set(corpus.sentences["v1"]) == {"eng", "fra", "deu"}
        assert set(corpus.sentences["v2"]) == {"eng", "fra"}

    def test_singleton_ids_dropped(self, tmp_path, caplog):
        paths = {
            "eng": write(tmp_path, "eng.txt", "v1\ta\nv9\tb\n"),
            "fra": write(tmp_path, "fra.txt", "v1\tx\n"),
        }
        with caplog.at_level("INFO", logger="mpalign.corpus"):
            corpus = load_corpus(paths)
        assert set(corpus.sentences) == {"v1"}
        assert "dropped 1 sentence ids present in fewer than 2 languages" in caplog.messages

    def test_empty_sentence_rejected(self, tmp_path):
        paths = {
            "eng": write(tmp_path, "eng.txt", "v1\t\n"),
            "fra": write(tmp_path, "fra.txt", "v1\tx\n"),
        }
        with pytest.raises(CorpusFormatError, match="no tokens"):
            load_corpus(paths)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_file_without_sentences_rejected(self, tmp_path, text):
        paths = {
            "eng": write(tmp_path, "eng.txt", "v1\ta\n"),
            "fra": write(tmp_path, "fra.txt", "v1\tx\n"),
            "deu": write(tmp_path, "deu.txt", text),
        }
        with pytest.raises(CorpusFormatError, match=f"^{paths['deu']}: no sentence$"):
            load_corpus(paths)

    def test_duplicate_id_rejected(self, tmp_path):
        paths = {
            "eng": write(tmp_path, "eng.txt", "v1\ta\nv1\tb\n"),
            "fra": write(tmp_path, "fra.txt", "v1\tx\n"),
        }
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(paths)

    def test_counts(self, tmp_path):
        lines = "".join(f"v{i}\tw{i}\n" for i in range(100))
        paths = {
            lang: write(tmp_path, f"{lang}.txt", lines) for lang in ("aaa", "bbb", "ccc")
        }
        corpus = load_corpus(paths)
        assert len(corpus.sentences) == 100
        assert all(len(v) == 3 for v in corpus.sentences.values())

    def test_order_independent(self, tmp_path):
        a = {
            "eng": write(tmp_path, "e1.txt", "v1\ta\nv2\tb\n"),
            "fra": write(tmp_path, "f1.txt", "v1\tx\nv2\ty\n"),
        }
        b = {
            "eng": write(tmp_path, "e2.txt", "v2\tb\nv1\ta\n"),
            "fra": write(tmp_path, "f2.txt", "v2\ty\nv1\tx\n"),
        }
        assert load_corpus(a) == load_corpus(b)


class TestPharaoh:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t0-0 1-2\n")
        aset = load_pharaoh(path, ("eng", "fra"))
        assert aset.links["v1"] == {(0, 0), (1, 2)}

    def test_dedup(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t0-0 0-0\n")
        assert load_pharaoh(path, ("a", "b")).links["v1"] == {(0, 0)}

    def test_one_based(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t1-1\n")
        assert load_pharaoh(path, ("a", "b"), one_based=True).links["v1"] == {(0, 0)}

    def test_non_numeric_rejected(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t0-x\n")
        with pytest.raises(CorpusFormatError, match="bad link"):
            load_pharaoh(path, ("a", "b"))

    def test_empty_links_allowed(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t\n")
        assert load_pharaoh(path, ("a", "b")).links["v1"] == set()

    def test_bad_link_names_its_line(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t0-0 1-1\nv2\t0-1\nv3\t0-0 1-2-3 4\n")
        with pytest.raises(CorpusFormatError, match=r"a\.align:3: bad link '1-2-3'"):
            load_pharaoh(path, ("a", "b"))

    def test_one_based_zero_names_its_line(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\t1-1\nv2\t2-2 1-0\n")
        with pytest.raises(CorpusFormatError, match=r"a\.align:2: negative index in '1-0'"):
            load_pharaoh(path, ("a", "b"), one_based=True)

    @given(
        st.lists(
            st.sampled_from(
                ["0-0", "3-12", "10-2", "1-23-4", "12", "1--2", "-1-2", "1-", "-", "+1-2",
                 "0-x", "٣-1", "00-7", "5000-1"]
            ),
            max_size=6,
        ),
        st.sampled_from([" ", "  ", "\t"]),
        st.booleans(),
    )
    def test_line_parse_matches_item_by_item(self, items, sep, one_based):
        """A line gives the links, or the error, that parsing each of its items
        on its own gives, whatever whitespace separates them."""
        import tempfile
        from pathlib import Path

        from mpalign.corpus import _parse_index_pair

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.align"
            path.write_text("v0\t1-1\nv1\t" + sep.join(items) + "\n", encoding="utf-8")
            try:
                expected = {
                    _parse_index_pair(item, "-", path, 2, one_based) for item in items
                }
            except CorpusFormatError as exc:
                with pytest.raises(CorpusFormatError) as got:
                    load_pharaoh(path, ("a", "b"), one_based=one_based)
                assert str(got.value) == str(exc)
                return
            assert load_pharaoh(path, ("a", "b"), one_based=one_based).links["v1"] == expected

    @given(
        st.dictionaries(
            st.from_regex(r"v[0-9]{1,3}", fullmatch=True),
            st.sets(
                st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12
            ),
            max_size=8,
        )
    )
    def test_round_trip(self, links):
        import tempfile
        from pathlib import Path

        from mpalign.corpus import BilingualAlignmentSet

        aset = BilingualAlignmentSet(("a", "b"), links)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.align"
            write_pharaoh(aset, path)
            again = load_pharaoh(path, ("a", "b"))
        assert again.links == {sid: set(s) for sid, s in links.items()}


class TestTabbedLines:
    """The one line reader behind every loader: ``sid<TAB>payload`` lines,
    with a bare id allowed only in alignment and gold files."""

    def test_bare_id_is_an_empty_link_list(self, tmp_path):
        path = write(tmp_path, "a.align", "v1\nv2\t0-0\n")
        assert load_pharaoh(path, ("a", "b")).links == {"v1": set(), "v2": {(0, 0)}}
        gold = load_gold(write(tmp_path, "g.gold", "v1\n"), ("a", "b"))
        assert gold.possible == {"v1": set()}

    @pytest.mark.parametrize(
        "load",
        [
            lambda path: load_pharaoh(path, ("a", "b")),
            load_gold,
            load_pos_tagged,
            lambda path: load_corpus({"a": path}),
        ],
        ids=["pharaoh", "gold", "pos", "corpus"],
    )
    @pytest.mark.parametrize(
        "text,message",
        [("\nv1 0-0\n", "missing tab separator"), ("\n\t0-0\n", "empty sentence id")],
        ids=["no-tab", "no-id"],
    )
    def test_errors_name_file_and_line(self, tmp_path, load, text, message):
        path = write(tmp_path, "x.txt", text)
        with pytest.raises(CorpusFormatError, match=f"x.txt:2: {message}"):
            load(path)

    def test_bare_id_rejected_in_corpus(self, tmp_path):
        path = write(tmp_path, "a.txt", "v1\n")
        with pytest.raises(CorpusFormatError, match="a.txt:1: missing tab separator"):
            load_corpus({"a": path})


class TestGold:
    def test_sure_and_possible(self, tmp_path):
        path = write(tmp_path, "g.gold", "v1\t0-0 1?2\n")
        gold = load_gold(path, ("a", "b"))
        assert gold.sure["v1"] == {(0, 0)}
        assert gold.possible["v1"] == {(0, 0), (1, 2)}

    def test_empty_items(self, tmp_path):
        path = write(tmp_path, "g.gold", "v1\t\n")
        gold = load_gold(path, ("a", "b"))
        assert gold.sure["v1"] == set() and gold.possible["v1"] == set()

    def test_union_rule(self, tmp_path):
        path = write(tmp_path, "g.gold", "v1\t0?0 0-0\n")
        gold = load_gold(path, ("a", "b"))
        assert gold.sure["v1"] == {(0, 0)}
        assert gold.possible["v1"] == {(0, 0)}

    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "g.gold", "v1\t0-0 1?2\nv2\t3-3\n")
        gold = load_gold(path, ("a", "b"))
        out = tmp_path / "h.gold"
        write_gold(gold, out)
        again = load_gold(out, ("a", "b"))
        assert again.sure == gold.sure and again.possible == gold.possible


class TestPosTagged:
    def test_load(self, tmp_path):
        path = write(tmp_path, "eng.pos", "v1\tthe/DET dog/NOUN\n")
        tagged = load_pos_tagged(path)
        assert tagged["v1"] == [("the", "DET"), ("dog", "NOUN")]

    def test_unknown_tag(self, tmp_path):
        path = write(tmp_path, "eng.pos", "v1\tdog/NOPE\n")
        with pytest.raises(CorpusFormatError, match="unknown tag"):
            load_pos_tagged(path)

    def test_token_with_slash(self, tmp_path):
        path = write(tmp_path, "eng.pos", "v1\ta/b/X\n")
        assert load_pos_tagged(path)["v1"] == [("a/b", "X")]

class TestCheckpoint:
    def make(self, tmp_path, seed=0, ablate=()):
        cfg = TrainConfig(hidden=16, seed=seed, ablate=ablate)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, n_languages=3, vocab_size=11, rng=rng)
        std = FeatureStandardizer(np.arange(5.0), np.ones(5))
        vocab = {("eng", f"w{i}"): i for i in range(11)}
        path = tmp_path / "model.mpwa"
        save_checkpoint(path, params, std, ["deu", "eng", "fra"], vocab, cfg)
        return path, params, std, vocab, cfg

    def test_round_trip_bit_exact(self, tmp_path):
        path, params, std, vocab, cfg = self.make(tmp_path)
        loaded, std2, langs, vocab2, cfg2 = load_checkpoint(path)
        assert langs == ["deu", "eng", "fra"]
        assert vocab2 == vocab
        assert cfg2 == cfg
        for name, arr in params.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)
        assert np.array_equal(std2.mean, std.mean)
        assert np.array_equal(std2.std, std.std)

    def test_save_is_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1, *_ = self.make(tmp_path / "a", seed=5)
        p2, *_ = self.make(tmp_path / "b", seed=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path, *_ = self.make(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_old_version_refused(self, tmp_path):
        path, *_ = self.make(tmp_path)
        data = bytearray(path.read_bytes())
        for old in (1, 2, 3, 4):
            data[4:8] = struct.pack("<I", old)
            path.write_bytes(bytes(data))
            with pytest.raises(
                CheckpointError,
                match=rf"unsupported version {old} \(this mpalign reads version 5\); "
                "retrain the model",
            ):
                load_checkpoint(path)

    def test_featurization_round_trip(self, tmp_path):
        """The seed (also the base of the LPC seeds) and the ablated blocks,
        all that featurizing and encoding read, are stored once, flat."""
        path, *_, cfg = self.make(tmp_path, seed=13, ablate=("word", "position"))
        cfg2 = load_checkpoint(path)[4]
        assert cfg2 == cfg
        assert (cfg2.seed, cfg2.ablate) == (13, ("word", "position"))
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<Q", data[8:16])
        stored = json.loads(data[16 : 16 + meta_len])["train_config"]
        assert stored == {
            "hidden": 16, "lr": 1e-3, "batch_size": 400, "epochs": 1,
            "train_sample": 6400, "seed": 13, "ablate": ["word", "position"],
        }

    def test_truncated(self, tmp_path):
        path, *_ = self.make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_dimension_mismatch(self, tmp_path):
        path, params, std, vocab, cfg = self.make(tmp_path)
        # resave with an inconsistent hidden width in the config
        bad_cfg = TrainConfig(hidden=32, seed=0, ablate=cfg.ablate)
        save_checkpoint(path, params, std, ["deu", "eng", "fra"], vocab, bad_cfg)
        with pytest.raises(CheckpointError, match="dimension mismatch"):
            load_checkpoint(path)

    def test_ablated_round_trip(self, tmp_path):
        path, params, *_ = self.make(tmp_path, ablate=("centrality",))
        loaded, _, _, _, cfg2 = load_checkpoint(path)
        assert cfg2.ablate == ("centrality",)
        assert not loaded["feat.cent_w"].any()
