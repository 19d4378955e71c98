"""Corpus, alignment, gold-standard, and POS file parsing and serialization.

File formats (all UTF-8, one sentence per line, fields joined by a tab):

* corpus ``<lang>.txt``:      ``sentence_id<TAB>tok tok ...``
* alignments ``<a>-<b>.align``: ``sentence_id<TAB>i-j i-j ...`` (Pharaoh pairs)
* gold ``.gold``:             like Pharaoh; ``i-j`` sure, ``i?j`` possible-only
* POS ``<lang>.pos``:         ``sentence_id<TAB>tok/TAG tok/TAG ...``

Indices are 0-based internally; pass ``one_based=True`` for 1-based inputs.
"""

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

logger = logging.getLogger(__name__)

UPOS_TAGS = frozenset(
    "ADJ ADP ADV AUX CCONJ DET INTJ NOUN NUM PART PRON PROPN PUNCT SCONJ SYM VERB X".split()
)


class CorpusFormatError(ValueError):
    """Raised for malformed corpus/alignment/gold/POS files."""


@dataclass
class MultiParallelCorpus:
    languages: list[str]
    sentences: dict[str, dict[str, list[str]]]

    def sentence_ids(self) -> list[str]:
        return sorted(self.sentences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiParallelCorpus):
            return NotImplemented
        return self.languages == other.languages and self.sentences == other.sentences


@dataclass
class BilingualAlignmentSet:
    lang_pair: tuple[str, str]
    links: dict[str, set[tuple[int, int]]] = field(default_factory=dict)

    def swapped(self) -> "BilingualAlignmentSet":
        """Same link set with the two languages (and index roles) exchanged."""
        la, lb = self.lang_pair
        return BilingualAlignmentSet(
            (lb, la), {sid: {(j, i) for i, j in s} for sid, s in self.links.items()}
        )


@dataclass
class GoldAlignment:
    lang_pair: tuple[str, str]
    sure: dict[str, set[tuple[int, int]]] = field(default_factory=dict)
    possible: dict[str, set[tuple[int, int]]] = field(default_factory=dict)


def _read_tabbed(path: Path, bare_id_ok: bool = False):
    """Yield (line_no, sentence_id, payload) triples, skipping blank lines.

    With *bare_id_ok* a line holding only an id (no tab) yields an empty
    payload; alignment files use it for a sentence with no links.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" in line:
                sid, payload = line.split("\t", 1)
            elif bare_id_ok and " " not in line.strip():
                sid, payload = line.strip(), ""
            else:
                raise CorpusFormatError(f"{path}:{line_no}: missing tab separator")
            if not sid:
                raise CorpusFormatError(f"{path}:{line_no}: empty sentence id")
            yield line_no, sid, payload


def load_corpus(paths: Mapping[str, str | Path]) -> MultiParallelCorpus:
    """Load per-language token files; keep only sentence ids shared by >= 2
    languages. A file that holds no sentence is refused with its path."""
    per_lang: dict[str, dict[str, list[str]]] = {}
    for lang in sorted(paths):
        path = Path(paths[lang])
        seen: dict[str, list[str]] = {}
        for line_no, sid, payload in _read_tabbed(path):
            if sid in seen:
                raise CorpusFormatError(f"{path}:{line_no}: duplicate sentence id {sid!r}")
            toks = payload.split()
            if not toks:
                raise CorpusFormatError(f"{path}:{line_no}: sentence {sid!r} has no tokens")
            seen[sid] = toks
        if not seen:
            raise CorpusFormatError(f"{path}: no sentence")
        per_lang[lang] = seen

    counts: dict[str, int] = {}
    for table in per_lang.values():
        for sid in table:
            counts[sid] = counts.get(sid, 0) + 1
    keep = {sid for sid, c in counts.items() if c >= 2}
    dropped = len(counts) - len(keep)
    if dropped:
        logger.info("dropped %d sentence ids present in fewer than 2 languages", dropped)

    sentences: dict[str, dict[str, list[str]]] = {}
    for lang, table in per_lang.items():
        for sid, toks in table.items():
            if sid in keep:
                sentences.setdefault(sid, {})[lang] = toks
    return MultiParallelCorpus(sorted(per_lang), sentences)


def _parse_index_pair(
    item: str, sep: str, path, line_no: int, one_based: bool,
    lengths: tuple[int, int] | None = None,
):
    left, _, right = item.partition(sep)
    try:
        i, j = int(left), int(right)
    except ValueError:
        raise CorpusFormatError(f"{path}:{line_no}: bad link {item!r}") from None
    if one_based:
        i, j = i - 1, j - 1
    if i < 0 or j < 0:
        raise CorpusFormatError(f"{path}:{line_no}: negative index in {item!r}")
    if lengths is not None and (i >= lengths[0] or j >= lengths[1]):
        raise CorpusFormatError(
            f"{path}:{line_no}: link {item!r} is outside its sentence "
            f"(lengths {lengths[0]} and {lengths[1]})"
        )
    return i, j


def _sentence_lengths(
    corpus: MultiParallelCorpus, lang_pair: tuple[str, str], sid: str, path, line_no: int
) -> tuple[int, int]:
    """The lengths of sentence *sid* in the two languages of *lang_pair*; a
    sentence the corpus lacks, or holds without one of them, is refused."""
    sentence = corpus.sentences.get(sid)
    if sentence is None:
        raise CorpusFormatError(f"{path}:{line_no}: sentence {sid!r} is not in the corpus")
    for lang in lang_pair:
        if lang not in sentence:
            raise CorpusFormatError(f"{path}:{line_no}: sentence {sid!r} has no {lang} text")
    return len(sentence[lang_pair[0]]), len(sentence[lang_pair[1]])


def load_pharaoh(
    path: str | Path,
    lang_pair: tuple[str, str],
    one_based: bool = False,
    corpus: MultiParallelCorpus | None = None,
) -> BilingualAlignmentSet:
    """Load Pharaoh-style ``i-j`` links. Duplicates are merged; order is irrelevant.

    With *corpus*, a line with links is refused unless the corpus holds its
    sentence in both languages and every link lies inside it; an empty line
    is allowed for any sentence id.
    """
    path = Path(path)
    links: dict[str, set[tuple[int, int]]] = {}
    for line_no, sid, payload in _read_tabbed(path, bare_id_ok=True):
        items = payload.split()
        lengths = None
        if corpus is not None and items:
            lengths = _sentence_lengths(corpus, lang_pair, sid, path, line_no)
        parsed = {
            _parse_index_pair(item, "-", path, line_no, one_based, lengths) for item in items
        }
        if sid in links:
            links[sid] |= parsed
        else:
            links[sid] = parsed
    return BilingualAlignmentSet(lang_pair, links)


def write_pharaoh(aset: BilingualAlignmentSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid in sorted(aset.links):
            items = " ".join(f"{i}-{j}" for i, j in sorted(aset.links[sid]))
            fh.write(f"{sid}\t{items}\n")


def load_gold(
    path: str | Path,
    lang_pair: tuple[str, str] = ("", ""),
    one_based: bool = False,
    corpus: MultiParallelCorpus | None = None,
) -> GoldAlignment:
    """Load gold links; ``i-j`` items are sure, ``i?j`` possible-only.

    The possible set always includes the sure set after loading. With
    *corpus*, a line's links for a sentence the corpus holds are refused
    unless they lie inside the sentence, in both languages; sentences the
    corpus lacks are left to the caller.
    """
    path = Path(path)
    gold = GoldAlignment(lang_pair)
    for line_no, sid, payload in _read_tabbed(path, bare_id_ok=True):
        items = payload.split()
        lengths = None
        if corpus is not None and items and sid in corpus.sentences:
            lengths = _sentence_lengths(corpus, lang_pair, sid, path, line_no)
        sure = gold.sure.setdefault(sid, set())
        poss = gold.possible.setdefault(sid, set())
        for item in items:
            if "?" in item:
                poss.add(_parse_index_pair(item, "?", path, line_no, one_based, lengths))
            else:
                sure.add(_parse_index_pair(item, "-", path, line_no, one_based, lengths))
        poss |= sure
    return gold


def write_gold(gold: GoldAlignment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid in sorted(gold.possible):
            sure = gold.sure.get(sid, set())
            items = [f"{i}-{j}" for i, j in sorted(sure)]
            items += [f"{i}?{j}" for i, j in sorted(gold.possible[sid] - sure)]
            fh.write(f"{sid}\t{' '.join(items)}\n")


def load_pos_tagged(path: str | Path) -> dict[str, list[tuple[str, str]]]:
    """Load one language's ``tok/TAG`` file; tags must be UPOS (or ``X``)."""
    path = Path(path)
    out: dict[str, list[tuple[str, str]]] = {}
    for line_no, sid, payload in _read_tabbed(path):
        if sid in out:
            raise CorpusFormatError(f"{path}:{line_no}: duplicate sentence id {sid!r}")
        pairs = []
        for item in payload.split():
            tok, sep, tag = item.rpartition("/")
            if not sep or not tok:
                raise CorpusFormatError(f"{path}:{line_no}: bad token/tag {item!r}")
            if tag not in UPOS_TAGS:
                raise CorpusFormatError(f"{path}:{line_no}: unknown tag {tag!r}")
            pairs.append((tok, tag))
        if not pairs:
            raise CorpusFormatError(f"{path}:{line_no}: sentence {sid!r} has no tokens")
        out[sid] = pairs
    return out
