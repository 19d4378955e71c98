"""Command line interface.

Subcommands: synth, build-graph, communities, features, train, align, eval,
project, pipeline. Every subcommand is deterministic under --seed when run
single-threaded; failures exit nonzero with a stage-tagged message.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl
from .corpus import load_gold, load_pharaoh, load_pos_tagged
from .evaluation import eval_table
from .features import WORD_DIM
from .graph import dump_graph
from .projection import ProjectionSource, filter_x, project, write_conll
from .synth import SynthConfig, generate, write_synth


def _pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LANG,LANG")
    return parts[0], parts[1]


def _csv(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


def _settings(p: argparse.ArgumentParser, title: str):
    """A group of flags named after config fields. A flag the user does not
    give is left out of the parsed namespace, so the field keeps its default."""
    return p.add_argument_group(title, argument_default=argparse.SUPPRESS)


def _add_data_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data",
        required=True,
        help="directory with <lang>.txt corpus files and <a>-<b>.align files",
    )
    p.add_argument(
        "--one-based",
        action="store_true",
        help="treat alignment/gold indices as 1-based",
    )


def _add_cd_args(p: argparse.ArgumentParser) -> None:
    g = _settings(p, "community detection")
    g.add_argument("--seed", type=int,
                   help="base of the per-sentence LPC seeds; also the training seed")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    g = _settings(p, "training")
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch-size", type=int)
    g.add_argument("--lr", type=float)
    g.add_argument("--train-sample", type=int, help="max sentences sampled for training")
    g.add_argument("--hidden", type=int)
    g.add_argument(
        "--ablate",
        type=_csv,
        help="feature blocks to drop: centrality,community,position,language,word",
    )
    g.add_argument("--train-ids", help="file with one training sentence id per line")


def _add_align_args(p: argparse.ArgumentParser) -> None:
    g = _settings(p, "alignment")
    g.add_argument("--pair", type=_pair, required=True, help="source,target languages")
    g.add_argument("--alpha", type=float)
    g.add_argument("--orig", help="bilingual links to add to the GDFA union (tgdfa+orig)")
    g.add_argument("--test-ids", help="file with one sentence id per line to align")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpalign",
        description="Multiparallel word alignment toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-concept corpus")
    p.add_argument("--out", required=True)
    g = _settings(p, "corpus")
    g.add_argument("--sentences", type=int, dest="n_sentences")
    g.add_argument("--languages", type=int, dest="n_languages")
    g.add_argument("--vocab", type=int)
    g.add_argument("--len-min", type=int)
    g.add_argument("--len-max", type=int)
    g.add_argument("--edge-drop", type=float, dest="edge_drop_rate")
    g.add_argument("--edge-noise", type=float, dest="edge_noise_rate")
    g.add_argument("--seed", type=int)
    g.add_argument("--test-size", type=int, dest="n_test")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="dump sentence graphs as text")
    _add_data_arg(p)
    p.add_argument("--out", required=True)
    p.add_argument("--sentence", help="dump only this sentence id")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("communities", help="per-sentence community assignments")
    _add_data_arg(p)
    _add_cd_args(p)
    p.add_argument("--algorithm", choices=("gmc", "lpc"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("features", help="fit the standardizer and word vectors")
    _add_data_arg(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train-ids")
    p.add_argument("--word-tsv", action="store_true",
                   help=f"also dump word vectors as lang word v1..v{WORD_DIM}")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the link predictor")
    _add_data_arg(p)
    _add_cd_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("align", help="induce alignments with a trained model, "
                       "featurized as the checkpoint records")
    _add_data_arg(p)
    _add_align_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="score predictions against gold links")
    p.add_argument("--pred", type=_csv, required=True, help="prediction file(s)")
    p.add_argument("--names", type=_csv, default=None, help="method name per file")
    p.add_argument("--gold", required=True)
    p.add_argument("--pair", type=_pair, default=("src", "tgt"))
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--bins", type=int, default=0, help="frequency bins to report")
    p.add_argument("--data", help="corpus directory (needed for --bins)")
    p.add_argument("--test-ids", help="file with one sentence id per line to score")
    p.add_argument("--out", help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("project", help="project POS tags through alignments")
    _add_data_arg(p)
    p.add_argument("--target", required=True, help="target language code")
    p.add_argument("--sources", type=_csv, required=True,
                   help="source languages; a tied vote goes to the earlier one")
    p.add_argument("--alignments", type=_csv, required=True,
                   help="target-source Pharaoh file per source language")
    p.add_argument("--tags", type=_csv, required=True,
                   help="tok/TAG file per source language")
    p.add_argument("--swap", action="store_true",
                   help="alignment files are source-target instead of target-source")
    p.add_argument("--x-threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("pipeline", help="run all stages with caching")
    _add_data_arg(p)
    _add_cd_args(p)
    _add_train_args(p)
    _add_align_args(p)
    g = _settings(p, "evaluation")
    g.add_argument("--gold")
    g.add_argument("--eval-bins", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)
    return ap


def _fields(args, cls) -> dict:
    """The parsed flags whose dest names a field of the dataclass *cls*."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names}


def _pipeline_config(args, out_dir: str) -> pl.PipelineConfig:
    cfg = pl.PipelineConfig(
        data_dir=args.data, out_dir=out_dir, **_fields(args, pl.PipelineConfig)
    )
    cfg.validate()
    return cfg


def _load_graphs(args, id_file: str | None = None):
    """The corpus, the ids *id_file* selects from it (see
    :func:`pipeline.select_ids`) and the graphs of just those sentences."""
    corpus, asets = pl.load_inputs(args.data, one_based=args.one_based)
    ids = pl.select_ids(id_file, corpus.sentences)
    return corpus, ids, pl.build_all_graphs(corpus, asets, ids)


def cmd_synth(args) -> int:
    write_synth(generate(SynthConfig(**_fields(args, SynthConfig))), args.out)
    print(f"wrote synthetic corpus to {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    corpus, asets = pl.load_inputs(args.data, one_based=args.one_based)
    if args.sentence and args.sentence not in corpus.sentences:
        raise ValueError(f"sentence {args.sentence!r} is not in the corpus")
    ids = [args.sentence] if args.sentence else corpus.sentence_ids()
    graphs = pl.build_all_graphs(corpus, asets, ids)
    with open(args.out, "w", encoding="utf-8") as fh:
        for sid in ids:
            fh.write(f"# sentence {sid}\n")
            fh.write(dump_graph(graphs[sid]))
    print(f"dumped {len(ids)} graph(s) to {args.out}")
    return 0


def cmd_communities(args) -> int:
    cfg = _pipeline_config(args, str(Path(args.out).parent))
    _, _, graphs = _load_graphs(args)
    pl.write_communities_tsv(graphs, args.algorithm, Path(args.out), cfg.seed)
    print(f"wrote {args.algorithm} communities for {len(graphs)} sentences to {args.out}")
    return 0


def cmd_features(args) -> int:
    corpus, ids, graphs = _load_graphs(args, args.train_ids)
    standardizer, vocab, table = pl.features_stage(corpus, graphs, ids)
    out = Path(args.out)
    pl.write_feature_artifacts(out, standardizer, vocab, table)
    if args.word_tsv:
        with open(out / "word_vectors.tsv", "w", encoding="utf-8") as fh:
            for (lang, word), idx in sorted(vocab.items(), key=lambda kv: kv[1]):
                vec = " ".join(f"{x:.6f}" for x in table[idx])
                fh.write(f"{lang}\t{word}\t{vec}\n")
    print(f"fitted features over {len(ids)} sentences; artifacts in {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _pipeline_config(args, args.out)
    corpus, ids, graphs = _load_graphs(args, cfg.train_ids)
    fitted = pl.features_stage(corpus, graphs, ids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.mpwa"
    n = pl.train_stage(cfg, corpus, graphs, ids, fitted, model_path, out / "train_log.json")
    print(f"trained on {n} sentences; checkpoint at {model_path}")
    return 0


def cmd_align(args) -> int:
    cfg = _pipeline_config(args, str(Path(args.out).parent))
    corpus, ids, graphs = _load_graphs(args, cfg.test_ids)
    n = pl.align_with_model(Path(args.model), graphs, corpus, ids, cfg, Path(args.out))
    print(f"aligned {n} sentences -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    names = args.names or [Path(p).stem for p in args.pred]
    if len(names) != len(args.pred):
        raise SystemExit("--names must match --pred")
    gold = load_gold(args.gold, args.pair, one_based=args.one_based)
    if not gold.possible:
        raise ValueError(f"{args.gold}: no gold sentence to score")
    gold = pl.gold_of(gold, pl.select_ids(args.test_ids, gold.possible))
    corpus = None
    if args.bins:
        if not args.data:
            raise SystemExit("--bins requires --data for corpus frequencies")
        corpus, _ = pl.load_inputs(args.data, one_based=args.one_based)
        missing = [sid for sid in gold.possible if sid not in corpus.sentences]
        if missing:
            raise ValueError(
                f"{args.gold}: gold sentence {missing[0]!r} is not in the corpus "
                f"under {args.data}"
            )

    runs = []
    for name, path in zip(names, args.pred):
        aset = load_pharaoh(path, args.pair, one_based=args.one_based)
        missing = sum(sid not in aset.links for sid in gold.possible)
        if missing:
            print(f"{path}: {missing} of {len(gold.possible)} gold sentences have no "
                  "line; scored as empty predictions", file=sys.stderr)
        runs.append((name, {sid: aset.links.get(sid, set()) for sid in gold.possible}))
    text = eval_table(runs, gold, corpus, args.pair[0], args.bins)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_project(args) -> int:
    if not (len(args.sources) == len(args.alignments) == len(args.tags)):
        raise SystemExit("--sources, --alignments and --tags must align")
    from mpalign.corpus import load_corpus

    corpus = load_corpus(pl.discover_corpus_files(args.data))
    if args.target not in corpus.languages:
        raise SystemExit(f"target language {args.target!r} not in corpus")
    tagged = {lang: load_pos_tagged(path) for lang, path in zip(args.sources, args.tags)}
    links = {}
    for lang, path in zip(args.sources, args.alignments):
        aset = load_pharaoh(path, (args.target, lang), one_based=args.one_based)
        links[lang] = aset.swapped() if args.swap else aset

    sentences = []
    for sid in corpus.sentence_ids():
        toks = corpus.sentences[sid].get(args.target)
        if toks is None:
            continue
        sources = []
        for lang in args.sources:
            sent_tags = tagged[lang].get(sid)
            if sent_tags is None:
                continue
            sources.append(
                ProjectionSource(lang, sent_tags, links[lang].links.get(sid, set()))
            )
        if sources:
            sentences.append(project(sid, toks, sources))
    kept = filter_x(sentences, threshold=args.x_threshold)
    write_conll(kept, args.out)
    print(
        f"projected {len(sentences)} sentences, kept {len(kept)} "
        f"after the X filter -> {args.out}"
    )
    return 0


def cmd_pipeline(args) -> int:
    artifacts = pl.run_pipeline(_pipeline_config(args, args.out))
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pl.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
