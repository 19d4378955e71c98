"""Span tracing of mpalign's layers, installed from outside the package.

Each traced function is replaced under every name it is looked up by: the
module that defines it and every mpalign module that imported it by name
(``pipeline`` does ``from .features import centralities``, so patching only
``features.centralities`` would miss the calls ``compute_centralities`` makes).
Methods are patched on their class. A span's self time is its duration minus
the time of the traced spans it encloses.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" patches a method.
TRACED = (
    ("corpus", "load_corpus", "corpus.load"),
    ("corpus", "load_pharaoh", "corpus.load"),
    ("corpus", "load_gold", "corpus.load"),
    ("graph", "build_graph", "graph.build"),
    ("communities", "detect", "communities.detect"),
    ("features", "centralities", "features.centralities"),
    ("features", "featurize", "features.featurize"),
    ("features", "train_word_embeddings", "features.word_embeddings"),
    ("gnn", "train_model", "gnn.train"),
    ("gnn", "encode", "gnn.encode"),
    ("gnn", "decode_pairs", "gnn.decode"),
    ("gnn", "batch_loss", "gnn.loss"),
    ("gnn", "sample_negatives", "gnn.negatives"),
    ("gnn", "AdamW.step", "gnn.adamw"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("inference", "score_matrix", "inference.score"),
    ("inference", "threshold_directional", "inference.threshold"),
    ("inference", "gdfa", "inference.gdfa"),
    ("evaluation", "score", "evaluation.score"),
    ("projection", "project", "projection.project"),
    ("pipeline", "write_communities_tsv", "pipeline.communities_tsv"),
)


class Tracer:
    """Aggregates self time and call counts per span name while installed."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_outside_training: Counter = Counter()
        self.sentences: defaultdict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [name, time of enclosed spans]
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.calls[name] += 1
            if not self._active["gnn.train"]:
                self.calls_outside_training[name] += 1
            graph = getattr(args[0], "sentence_id", None) if args else None
            if graph is not None:
                self.sentences[name].add(graph)
            frame = [name, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._active[name] -= 1
                self._stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed

        return span

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items() if key.partition(".")[0] == "mpalign"
        ]
        for module_name, attr, name in TRACED:
            module = sys.modules[f"mpalign.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._set(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
