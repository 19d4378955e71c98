"""End-to-end orchestration: graphs -> communities -> features -> train -> align -> eval.

Each stage writes its artifacts together with a ``.key`` file holding a content
hash of the input files, the program (:func:`code_digest`) and what the stage
reads, an upstream stage through its key; a rerun with unchanged inputs skips
the stage and reuses the artifacts byte-for-byte. A stage removes its key
before it writes and writes the key last, so artifacts left by a stage that
failed are never taken for a cache hit.
"""

import functools
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence

import numpy as np
import scipy

from . import evaluation
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    BilingualAlignmentSet,
    GoldAlignment,
    MultiParallelCorpus,
    load_corpus,
    load_gold,
    load_pharaoh,
    write_pharaoh,
)
from .features import (
    FeatureStandardizer,
    build_word_vocab,
    centralities,
    featurize,
    partition,
    train_word_embeddings,
)
from .gnn import TrainConfig, train_model
from .graph import AlignmentGraph, build_graph
from .inference import score_matrices, threshold_gdfa

logger = logging.getLogger(__name__)

# the features stage's files: the standardizer, the word vocabulary and its vectors
FEATURE_ARTIFACTS = ("standardizer.json", "word_vocab.json", "word_vectors.npy")


@dataclass(frozen=True, kw_only=True)
class PipelineConfig(TrainConfig):
    """Every setting of a run: the model and training settings of
    :class:`TrainConfig`, whose ``seed`` is also the base of the LPC seeds,
    and the run's own. ``alpha`` sets the row-softmax bar over the decoder
    logits; ``orig`` names bilingual links that join the GDFA union (method
    tgdfa+orig). A config that exists can run: a setting that cannot is
    refused when the config is built."""

    data_dir: str
    out_dir: str
    pair: tuple[str, str] | None = None  # needed to align, not to train
    gold: str | None = None
    orig: str | None = None
    train_ids: str | None = None
    test_ids: str | None = None
    one_based: bool = False
    alpha: float = 2.0
    eval_bins: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, not {self.alpha}")
        if self.pair is not None and (len(self.pair) != 2 or self.pair[0] == self.pair[1]):
            raise ValueError("pair must name two distinct languages")
        if self.eval_bins < 0:
            raise ValueError(f"eval_bins must be at least 0, not {self.eval_bins}")

    @property
    def method(self) -> str:
        return "tgdfa+orig" if self.orig else "tgdfa"

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


# ---------------------------------------------------------------------------
# input discovery and loading


def discover_corpus_files(data_dir: str | Path) -> dict[str, Path]:
    paths = sorted(Path(data_dir).glob("*.txt"))
    corpus = {p.stem: p for p in paths if p.stem not in ("train_ids", "test_ids")}
    if not corpus:
        raise FileNotFoundError(f"no <lang>.txt corpus files under {data_dir}")
    return corpus


def discover_alignment_files(data_dir: str | Path) -> dict[tuple[str, str], Path]:
    out = {}
    for path in sorted(Path(data_dir).glob("*.align")):
        la, sep, lb = path.stem.partition("-")
        if not sep:
            raise ValueError(f"alignment file {path} is not named <langA>-<langB>.align")
        if la == lb:
            raise ValueError(
                f"alignment file {path} pairs {la} with itself; "
                "<langA>-<langB>.align needs two different languages"
            )
        if (lb, la) in out:
            raise ValueError(
                f"alignment files {out[(lb, la)]} and {path} both align {la} with {lb}; "
                "keep one of them"
            )
        out[(la, lb)] = path
    return out


def load_inputs(
    data_dir: str | Path, one_based: bool = False
) -> tuple[MultiParallelCorpus, list[BilingualAlignmentSet]]:
    """The corpus and alignments of *data_dir*. A ``<name>.txt`` file that
    no alignment file names as a language is refused with its path; an
    alignment line whose links do not lie in a corpus sentence that holds
    both of the file's languages, with its path and line."""
    corpus_files = discover_corpus_files(data_dir)
    align_files = discover_alignment_files(data_dir)
    aligned = {lang for pair in align_files for lang in pair}
    for lang, path in corpus_files.items():
        if lang not in aligned:
            raise ValueError(f"{path}: no <a>-<b>.align file names language {lang!r}")
    corpus = load_corpus(corpus_files)
    asets = [
        load_pharaoh(path, pair, one_based=one_based, corpus=corpus)
        for pair, path in align_files.items()
    ]
    return corpus, asets


def build_all_graphs(
    corpus: MultiParallelCorpus,
    alignments: Sequence[BilingualAlignmentSet],
    ids: Sequence[str] | None = None,
) -> dict[str, AlignmentGraph]:
    """The sentence graph of each of *ids*, by default of every sentence."""
    return {
        sid: build_graph(sid, corpus.sentences[sid], alignments)
        for sid in (corpus.sentence_ids() if ids is None else ids)
    }


def read_id_file(path: str | Path) -> list[str]:
    """The ids of *path*, one per non-blank line; an id listed twice is
    refused with its line."""
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        sid = line.strip()
        if sid in first_line:
            raise ValueError(
                f"{path}:{line_no}: sentence id {sid!r} is listed again "
                f"(first on line {first_line[sid]})"
            )
        if sid:
            first_line[sid] = line_no
    return list(first_line)


def select_ids(path: str | Path | None, known: Collection[str]) -> list[str]:
    """The ids listed in *path* that are *known* (sentences of the corpus, or
    of a gold file), in file order; without a file, every known id in sorted
    order. A file that lists an id twice, or selects no known id, is refused."""
    if not path:
        return sorted(known)
    listed = read_id_file(path)
    ids = [sid for sid in listed if sid in known]
    if not ids:
        raise ValueError(
            f"{path}: none of its {len(listed)} sentence ids names one of "
            f"the {len(known)} sentences to select from"
        )
    return ids


def gold_of(gold: GoldAlignment, ids: Sequence[str]) -> GoldAlignment:
    """The gold links of those *ids* sentences that *gold* holds."""
    keep = [sid for sid in ids if sid in gold.possible]
    sure = {sid: gold.sure.get(sid, set()) for sid in keep}
    return GoldAlignment(gold.lang_pair, sure, {sid: gold.possible[sid] for sid in keep})


# ---------------------------------------------------------------------------
# cache plumbing


def _hash_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def code_digest() -> str:
    """sha256 over this package's ``.py`` files (name and bytes, in sorted
    order) and the numpy and scipy versions: a stage key that holds it
    misses after a source edit or an upgrade that can move the results."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    return h.hexdigest()


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def run_stage(
    stage: str, parts: Mapping, artifacts: Sequence[Path], write: Callable[[], object]
) -> str:
    """Reuse *artifacts* when the key beside them, a hash of *stage* and the
    key *parts*, is this run's; otherwise rewrite them. Return the key.

    The old key is removed before *write* runs and the new one written after
    it returns; any failure is raised as a :class:`StageError`.
    """
    key = hashlib.sha256(
        json.dumps({**parts, "stage": stage}, sort_keys=True, default=str).encode()
    ).hexdigest()
    key_path = artifacts[0].with_suffix(artifacts[0].suffix + ".key")
    try:
        if (
            all(a.exists() for a in artifacts)
            and key_path.exists()
            and key_path.read_text().strip() == key
        ):
            logger.info("%s: cache hit", stage)
            return key
        key_path.unlink(missing_ok=True)
        write()
        key_path.write_text(key + "\n")
    except Exception as exc:  # noqa: BLE001 - stage boundary
        raise StageError(stage, exc) from exc
    return key


# ---------------------------------------------------------------------------
# per-sentence graph analysis shared by the stages


def compute_centralities(
    graphs: Mapping[str, AlignmentGraph], ids: Sequence[str]
) -> dict[str, np.ndarray]:
    return {sid: centralities(graphs[sid]) for sid in ids}


def write_communities_tsv(
    graphs: Mapping[str, AlignmentGraph], algorithm: str, path: Path, seed: int
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid in sorted(graphs):
            p = partition(graphs[sid], algorithm, seed)
            items = " ".join(f"{v}:{c}" for v, c in enumerate(p.labels))
            fh.write(f"{sid}\t{items}\n")


# ---------------------------------------------------------------------------
# the pipeline


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    """Run the stages of *cfg* under ``cfg.out_dir`` and return their
    artifacts by name; every input file is checked before the first stage."""
    if cfg.pair is None:
        raise ValueError("the pipeline needs a language pair to align")
    out = Path(cfg.out_dir)
    data_files = [
        *discover_corpus_files(cfg.data_dir).values(),
        *discover_alignment_files(cfg.data_dir).values(),
    ]
    inputs = {
        "inputs": {str(p): _hash_file(p) for p in data_files},
        "one_based": cfg.one_based,
        "code": code_digest(),
    }

    try:
        corpus, asets = load_inputs(cfg.data_dir, one_based=cfg.one_based)
        graphs = build_all_graphs(corpus, asets)
    except Exception as exc:  # noqa: BLE001 - stage boundary
        raise StageError("build-graph", exc) from exc
    for lang in cfg.pair:
        if lang not in corpus.languages:
            raise ValueError(
                f"pair language {lang!r} is not in the corpus "
                f"({', '.join(corpus.languages)})"
            )

    train_ids = select_ids(cfg.train_ids, graphs)
    test_ids = select_ids(cfg.test_ids, graphs)
    if cfg.gold:
        gold_all = load_gold(cfg.gold, cfg.pair, one_based=cfg.one_based, corpus=corpus)
        gold = gold_of(gold_all, test_ids)
        if not gold.possible:
            raise ValueError(
                f"{cfg.gold}: none of its {len(gold_all.possible)} gold sentences "
                "is a test sentence"
            )
    if cfg.orig:
        load_pharaoh(cfg.orig, cfg.pair, one_based=cfg.one_based, corpus=corpus)

    # the communities TSVs are diagnostics; featurization detects again
    out.mkdir(parents=True, exist_ok=True)
    comm_paths = [out / "communities_gmc.tsv", out / "communities_lpc.tsv"]

    def write_communities():
        for algo, path in zip(("gmc", "lpc"), comm_paths):
            write_communities_tsv(graphs, algo, path, cfg.seed)

    run_stage("communities", {**inputs, "seed": cfg.seed}, comm_paths, write_communities)

    feat_dir = out / "features"
    feat_key = run_stage(
        "features",
        {**inputs, "train_ids": train_ids},
        [feat_dir / name for name in FEATURE_ARTIFACTS],
        lambda: write_feature_artifacts(
            feat_dir, *features_stage(corpus, graphs, train_ids)
        ),
    )

    model_path = out / "model.mpwa"
    log_path = out / "train_log.json"
    train_key = run_stage(
        "train",
        {
            **inputs,
            "features_key": feat_key,
            "train_ids": train_ids,
            "train": asdict(cfg.train_config()),
        },
        [model_path, log_path],
        lambda: train_stage(
            cfg, corpus, graphs, train_ids, read_feature_artifacts(feat_dir),
            model_path, log_path,
        ),
    )

    pair_tag = f"{cfg.pair[0]}-{cfg.pair[1]}"
    align_path = out / f"{pair_tag}.{cfg.method.replace('+', '-')}.align"
    align_key = run_stage(
        "align",
        {
            **inputs,
            "train_key": train_key,
            "pair": cfg.pair,
            "alpha": cfg.alpha,
            "orig": _hash_file(cfg.orig) if cfg.orig else None,
            "test_ids": test_ids,
        },
        [align_path],
        lambda: align_with_model(model_path, graphs, corpus, test_ids, cfg, align_path),
    )
    artifacts = {
        "communities_gmc": comm_paths[0],
        "communities_lpc": comm_paths[1],
        "features": feat_dir,
        "model": model_path,
        "train_log": log_path,
        "alignments": align_path,
    }

    if cfg.gold:
        input_aset = next((a for a in asets if set(a.lang_pair) == set(cfg.pair)), None)
        if input_aset is not None and input_aset.lang_pair != cfg.pair:
            input_aset = input_aset.swapped()  # its file names the pair the other way round
        eval_path = out / "eval.tsv"
        run_stage(
            "eval",
            {
                **inputs,
                "align_key": align_key,
                "gold": _hash_file(cfg.gold),
                "eval_bins": cfg.eval_bins,
            },
            [eval_path],
            lambda: evaluate_predictions(
                cfg, corpus, gold, input_aset, align_path, eval_path
            ),
        )
        artifacts["eval"] = eval_path

    return artifacts


def features_stage(
    corpus: MultiParallelCorpus,
    graphs: Mapping[str, AlignmentGraph],
    train_ids: Sequence[str],
) -> tuple[FeatureStandardizer, dict, np.ndarray]:
    raw_cent = compute_centralities(graphs, train_ids)
    standardizer = FeatureStandardizer.fit([raw_cent[sid] for sid in train_ids])
    vocab = build_word_vocab(corpus, train_ids)
    word_table = train_word_embeddings(corpus, vocab, train_ids)
    return standardizer, vocab, word_table


def write_feature_artifacts(
    out_dir: Path, standardizer: FeatureStandardizer, vocab: dict, table: np.ndarray
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    std_path, vocab_path, table_path = (out_dir / name for name in FEATURE_ARTIFACTS)
    std_path.write_text(
        json.dumps(
            {"mean": standardizer.mean.tolist(), "std": standardizer.std.tolist()}
        )
        + "\n"
    )
    vocab_path.write_text(
        json.dumps([list(k) for k in sorted(vocab, key=vocab.get)]) + "\n"
    )
    np.save(table_path, table)


def read_feature_artifacts(out_dir: Path):
    std_path, vocab_path, table_path = (out_dir / name for name in FEATURE_ARTIFACTS)
    std = json.loads(std_path.read_text())
    standardizer = FeatureStandardizer(
        np.asarray(std["mean"], dtype=np.float64), np.asarray(std["std"], dtype=np.float64)
    )
    vocab_list = json.loads(vocab_path.read_text())
    vocab = {tuple(item): i for i, item in enumerate(vocab_list)}
    table = np.load(table_path)
    return standardizer, vocab, table


def train_stage(
    cfg: PipelineConfig,
    corpus: MultiParallelCorpus,
    graphs: Mapping[str, AlignmentGraph],
    train_ids: Sequence[str],
    fitted: tuple[FeatureStandardizer, dict, np.ndarray],
    model_path: Path,
    log_path: Path,
) -> int:
    """Train on *train_ids*, featurized with *fitted* (the output of
    :func:`features_stage`), write the checkpoint and the loss log, and
    return how many sentences training used."""
    tc = cfg.train_config()
    standardizer, vocab, word_table = fitted
    lang_index = {lang: i for i, lang in enumerate(corpus.languages)}
    feats = [
        featurize(graphs[sid], standardizer, lang_index, vocab, tc.seed)
        for sid in train_ids
    ]
    result = train_model(feats, tc, len(corpus.languages), len(vocab), word_table)
    save_checkpoint(
        model_path, result.params, standardizer, corpus.languages, vocab, tc
    )
    log_path.write_text(
        json.dumps(
            {
                "batch_losses": result.batch_losses,
                "n_sentences": len(result.sentences_used),
            }
        )
        + "\n"
    )
    return len(result.sentences_used)


def align_with_model(
    model_path: Path,
    graphs: Mapping[str, AlignmentGraph],
    corpus: MultiParallelCorpus,
    test_ids: Sequence[str],
    cfg: PipelineConfig,
    out_path: Path,
) -> int:
    """Align ``cfg.pair`` in the *test_ids* sentences that hold both of its
    languages, write the links to *out_path* and return how many sentences
    that was. A pair language absent from the corpus or the checkpoint is
    refused before any sentence is featurized, as is a line of ``cfg.orig``
    that :func:`load_pharaoh` refuses against *corpus*."""
    params, standardizer, languages, vocab, tc = load_checkpoint(model_path)
    for lang in cfg.pair:
        if lang not in corpus.languages or lang not in languages:
            raise ValueError(
                f"pair language {lang!r} is not in both the corpus "
                f"({', '.join(corpus.languages)}) and the checkpoint "
                f"({', '.join(languages)})"
            )
    lang_index = {lang: i for i, lang in enumerate(languages)}
    la, lb = cfg.pair
    result = BilingualAlignmentSet(cfg.pair)
    ids = [
        sid
        for sid in test_ids
        if la in corpus.sentences.get(sid, {}) and lb in corpus.sentences.get(sid, {})
    ]
    orig = {}
    if cfg.orig:
        orig = load_pharaoh(
            cfg.orig, cfg.pair, one_based=cfg.one_based, corpus=corpus
        ).links
    feats = [
        featurize(graphs[sid], standardizer, lang_index, vocab, tc.seed) for sid in ids
    ]
    scores = score_matrices(feats, params, la, lb, tc.ablate)
    for sid, s in zip(ids, scores):
        result.links[sid] = threshold_gdfa(s, cfg.alpha, orig.get(sid))
    write_pharaoh(result, out_path)
    return len(ids)


def evaluate_predictions(
    cfg: PipelineConfig,
    corpus: MultiParallelCorpus,
    gold: GoldAlignment,
    input_aset: BilingualAlignmentSet | None,
    align_path: Path,
    eval_path: Path,
) -> None:
    """Score *input_aset* (the input alignments of ``cfg.pair``, if any) and
    *align_path* over the sentences of *gold*."""
    sets = [("input", input_aset)] if input_aset is not None else []
    sets.append((f"gnn-{cfg.method}", load_pharaoh(align_path, cfg.pair)))
    runs = [(n, {sid: a.links.get(sid, set()) for sid in gold.possible}) for n, a in sets]
    table = evaluation.eval_table(runs, gold, corpus, cfg.pair[0], cfg.eval_bins)
    eval_path.write_text(table, encoding="utf-8")
