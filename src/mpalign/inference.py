"""Alignment induction: symmetric pair scores, row-softmax thresholding, GDFA.

The score matrix for a language pair inside one sentence averages the decoder
logits (before the sigmoid) over both argument orders, so transposing the pair
transposes the matrix: exactly for some shapes, otherwise up to float32
rounding, because the decoder's last product rounds a pair's score by its
position among the pairs.
Directional candidate sets keep, per row, the best cell whose row-softmax mass
exceeds ``alpha / row_length``; grow-diag-final-and then symmetrizes the
forward and backward sets.
"""

from typing import Sequence

import numpy as np

from . import gnn
from .autodiff import Tensor
from .features import SentenceFeatures

NEIGHBOR_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))

LinkSet = set[tuple[int, int]]


def score_matrices(
    feats: Sequence[SentenceFeatures],
    params: dict[str, np.ndarray],
    lang_x: str,
    lang_y: str,
    ablate: tuple[str, ...],
) -> list[np.ndarray]:
    """The logit of every (x_i, y_j) pair of each sentence: one float64 ``(m, l)``
    array per sentence, symmetric under role swap (see the module docstring).

    Each sentence is encoded once. The ``lang_x`` rows and the ``lang_y`` rows
    of all sentences are stacked and projected through each half of
    ``dec1.W`` once per call, and each sentence then combines both argument
    orders from its rows of the four projections.
    """
    for sf in feats:
        g = sf.graph
        if lang_x not in g.offsets or lang_y not in g.offsets:
            missing = lang_x if lang_x not in g.offsets else lang_y
            raise ValueError(f"sentence {g.sentence_id}: language {missing!r} not present")
    if not feats:
        return []
    P = {name: Tensor(arr) for name, arr in params.items()}
    x_rows, y_rows = [], []
    for sf in feats:
        hidden = gnn.encode(sf, P, ablate).data
        start_x, m = sf.graph.offsets[lang_x]
        start_y, l = sf.graph.offsets[lang_y]
        # copies: a view would keep the sentence's whole encoder output alive
        x_rows.append(hidden[start_x : start_x + m].copy())
        y_rows.append(hidden[start_y : start_y + l].copy())
    X = Tensor(np.concatenate(x_rows))
    Y = Tensor(np.concatenate(y_rows))
    x_top, x_bot = gnn.project(X, P, "top"), gnn.project(X, P, "bottom")
    y_top, y_bot = gnn.project(Y, P, "top"), gnn.project(Y, P, "bottom")

    out = []
    x0 = y0 = 0
    for xr, yr in zip(x_rows, y_rows):
        m, l = len(xr), len(yr)
        xs = np.repeat(np.arange(x0, x0 + m), l)
        ys = np.tile(np.arange(y0, y0 + l), m)
        fwd = gnn.combine(x_top, y_bot, xs, ys, P).data
        bwd = gnn.combine(y_top, x_bot, ys, xs, P).data
        values = 0.5 * (fwd.reshape(m, l) + bwd.reshape(m, l))
        out.append(values.astype(np.float64))
        x0, y0 = x0 + m, y0 + l
    return out


def score_matrix(
    sf: SentenceFeatures,
    params: dict[str, np.ndarray],
    lang_x: str,
    lang_y: str,
    ablate: tuple[str, ...],
) -> np.ndarray:
    """:func:`score_matrices` of one sentence."""
    return score_matrices([sf], params, lang_x, lang_y, ablate)[0]


def _row_softmax(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def threshold_directional(s: np.ndarray, alpha: float) -> LinkSet:
    """Per-row best cell among those whose row-softmax exceeds alpha/row_length."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        return set()
    probs = _row_softmax(s)
    thr = alpha / s.shape[1]
    links: LinkSet = set()
    for i in range(s.shape[0]):
        surviving = np.nonzero(probs[i] > thr)[0]
        if surviving.size:
            j = surviving[np.argmax(s[i, surviving])]
            links.add((i, int(j)))
    return links


def gdfa(
    forward: LinkSet,
    backward: LinkSet,
    m: int,
    l: int,
    extra_union: LinkSet | None = None,
) -> LinkSet:
    """Grow-diag-final-and over the forward/backward candidate sets.

    Grow-diag runs in synchronous rounds: all candidates are tested against
    the alignment as it stood at the start of the round, which makes the
    fixpoint independent of enumeration order. Final-and scans forward links,
    then backward, then any extra union links, each sorted ascending.
    """
    forward = set(forward)
    backward = set(backward)
    union = forward | backward
    if extra_union:
        union |= set(extra_union)
    for i, j in union:
        if not (0 <= i < m and 0 <= j < l):
            raise ValueError(f"link ({i},{j}) outside a {m}x{l} sentence pair")

    aligned = forward & backward
    rows = {i for i, _ in aligned}
    cols = {j for _, j in aligned}

    candidates = union - aligned
    while True:
        added = set()
        for i, j in candidates:
            if (i in rows) and (j in cols):
                continue
            for di, dj in NEIGHBOR_OFFSETS:
                if (i + di, j + dj) in aligned:
                    added.add((i, j))
                    break
        if not added:
            break
        aligned |= added
        rows |= {i for i, _ in added}
        cols |= {j for _, j in added}
        candidates -= added

    scan = sorted(forward - aligned) + sorted(backward - forward - aligned)
    if extra_union:
        scan += sorted(set(extra_union) - forward - backward - aligned)
    for i, j in scan:
        if i not in rows and j not in cols:
            aligned.add((i, j))
            rows.add(i)
            cols.add(j)
    return aligned


def threshold_gdfa(
    s: np.ndarray, alpha: float, orig_gdfa: LinkSet | None = None
) -> LinkSet:
    """Thresholded GDFA of one ``(m, l)`` score matrix; ``orig_gdfa`` (the
    bilingual aligner's GDFA links) joins the union only. The backward set
    thresholds the columns of ``s``."""
    forward = threshold_directional(s, alpha)
    backward = {(i, j) for j, i in threshold_directional(s.T, alpha)}
    return gdfa(forward, backward, *s.shape, extra_union=orig_gdfa)
