"""Graph-attention link predictor: encoder, decoder, loss, optimizer, training.

The encoder is two single-head graph-attention layers followed by a fully
connected layer (ReLU between layers); each attention layer sums its
neighbourhoods as one sparse product (``autodiff.attend``). The decoder
scores a node pair from the concatenated hidden states through a two-layer
MLP ending in a sigmoid. Its first layer is evaluated as two per-node
projections, one for each half of ``dec1.W``, gathered per pair and summed:
the same function, without a (pairs x 2h) product. Inference thresholds the
logits (:func:`combine`); training reads the probabilities (:func:`decode_pairs`).
Training iterates sentence graphs, splits each graph's edges into batches of
positives and samples two in-sentence negatives per positive; a batch's
positives and negatives are decoded in one pass.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import (
    BLOCK_WIDTHS,
    CENT_DIM,
    CENTRALITY_NAMES,
    COMM_DIM,
    COMM_TABLE,
    LANG_DIM,
    POS_DIM,
    POS_TABLE,
    WORD_DIM,
    SentenceFeatures,
    derive_seed,
    input_dim,
)

LEAKY_SLOPE = 0.2
LOSS_EPS = 1e-7

# parameter names in checkpoint order
PARAM_NAMES = (
    "gat1.W",
    "gat1.a",
    "gat2.W",
    "gat2.a",
    "enc.W",
    "enc.b",
    "dec1.W",
    "dec1.b",
    "dec2.W",
    "dec2.b",
    "feat.cent_w",
    "feat.cent_b",
    "feat.comm_gmc",
    "feat.comm_lpc",
    "feat.pos",
    "feat.lang",
    "feat.word",
)

_BLOCK_PARAMS = {
    "centrality": ("feat.cent_w", "feat.cent_b"),
    "community": ("feat.comm_gmc", "feat.comm_lpc"),
    "position": ("feat.pos",),
    "language": ("feat.lang",),
    "word": ("feat.word",),
}


class NonFiniteGradientError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Model and training settings; ``seed`` also seeds the per-sentence LPC
    runs of featurization, and ``ablate`` names input blocks to drop."""

    hidden: int = 512
    lr: float = 1e-3
    batch_size: int = 400
    epochs: int = 1
    train_sample: int = 6400
    seed: int = 0
    ablate: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.ablate) - set(BLOCK_WIDTHS)
        if unknown:
            raise ValueError(f"unknown ablation block(s): {sorted(unknown)}")
        if set(self.ablate) >= set(BLOCK_WIDTHS):
            raise ValueError(f"ablate must keep one of the blocks {', '.join(BLOCK_WIDTHS)}")
        for name in ("hidden", "batch_size", "epochs", "train_sample"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, not {self.lr}")


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def param_shapes(
    config: TrainConfig, n_languages: int, vocab_size: int
) -> dict[str, tuple[int, int]]:
    """The shape of every parameter, in PARAM_NAMES order."""
    h = config.hidden
    n_cent = len(CENTRALITY_NAMES)
    return {
        "gat1.W": (input_dim(config.ablate), h),
        "gat1.a": (2 * h, 1),
        "gat2.W": (h, h),
        "gat2.a": (2 * h, 1),
        "enc.W": (h, h),
        "enc.b": (1, h),
        "dec1.W": (2 * h, h),
        "dec1.b": (1, h),
        "dec2.W": (h, 1),
        "dec2.b": (1, 1),
        "feat.cent_w": (n_cent, CENT_DIM),
        "feat.cent_b": (n_cent, CENT_DIM),
        "feat.comm_gmc": (COMM_TABLE, COMM_DIM),
        "feat.comm_lpc": (COMM_TABLE, COMM_DIM),
        "feat.pos": (POS_TABLE, POS_DIM),
        "feat.lang": (n_languages, LANG_DIM),
        "feat.word": (vocab_size + 1, WORD_DIM),  # last row = UNK
    }


def init_params(
    config: TrainConfig,
    n_languages: int,
    vocab_size: int,
    rng: np.random.Generator,
    word_table: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases; the word table
    comes from the co-occurrence SVD when supplied. Ablated feature blocks are
    zeroed; :func:`assemble` never reads them, so they get no gradient and
    :class:`AdamW` leaves them at zero."""
    params = {}
    for name, shape in param_shapes(config, n_languages, vocab_size).items():
        if name.endswith((".b", "_b")):
            params[name] = np.zeros(shape, dtype=np.float32)
        elif name == "feat.word" and word_table is not None:
            params[name] = word_table.astype(np.float32)
        else:
            # each centrality's lift reads one scalar: fan-in 1
            fan_in = 1 if name == "feat.cent_w" else shape[0]
            params[name] = _xavier(rng, fan_in, shape[1], shape)
    for name in frozen_param_names(config.ablate):
        params[name] = np.zeros_like(params[name])
    return params


def frozen_param_names(ablate: tuple[str, ...]) -> set[str]:
    return {name for block in ablate for name in _BLOCK_PARAMS[block]}


def as_leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}


# ---------------------------------------------------------------------------
# forward pieces


def assemble(sf: SentenceFeatures, P: dict[str, Tensor], ablate: tuple[str, ...]) -> Tensor:
    dtype = P["gat1.W"].dtype
    blocks: list[Tensor] = []
    if "centrality" not in ablate:
        for k in range(len(CENTRALITY_NAMES)):
            zk = ad.constant(sf.z_cent[:, k : k + 1].astype(dtype))
            wk = ad.narrow(P["feat.cent_w"], k, k + 1)
            bk = ad.narrow(P["feat.cent_b"], k, k + 1)
            blocks.append(zk @ wk + bk)
    if "community" not in ablate:
        blocks.append(ad.rows(P["feat.comm_gmc"], sf.comm_gmc))
        blocks.append(ad.rows(P["feat.comm_lpc"], sf.comm_lpc))
    if "position" not in ablate:
        blocks.append(ad.rows(P["feat.pos"], sf.pos_idx))
    if "language" not in ablate:
        blocks.append(ad.rows(P["feat.lang"], sf.lang_idx))
    if "word" not in ablate:
        blocks.append(ad.rows(P["feat.word"], sf.word_idx))
    return ad.concat(blocks, axis=1)


def gat_layer(
    x: Tensor, W: Tensor, a: Tensor, sf: SentenceFeatures, attn_out: list | None = None
) -> Tensor:
    """Single-head attention layer: softmax over each node's neighborhood plus itself."""
    h = W.shape[1]
    wx = x @ W
    a_center = ad.narrow(a, 0, h)
    a_nbr = ad.narrow(a, h, 2 * h)
    s_center = wx @ a_center  # (n, 1)
    s_nbr = wx @ a_nbr
    logits = ad.leaky_relu(
        ad.rows(s_center, sf.att_center) + ad.rows(s_nbr, sf.att_nbr), LEAKY_SLOPE
    )
    shift = ad.segment_max_constant(logits.data, sf.att_starts)
    ex = ad.exp(logits - ad.constant(shift[sf.att_center]))
    denom = ad.segment_sum(ex, sf.att_starts)
    alpha = ex / ad.rows(denom, sf.att_center)
    if attn_out is not None:
        attn_out.append(alpha.data.copy())
    return ad.attend(alpha, wx, sf.att_nbr, sf.att_starts)


def encode(
    sf: SentenceFeatures,
    P: dict[str, Tensor],
    ablate: tuple[str, ...],
    attn_out: list | None = None,
) -> Tensor:
    x = assemble(sf, P, ablate)
    x = ad.relu(gat_layer(x, P["gat1.W"], P["gat1.a"], sf, attn_out))
    x = ad.relu(gat_layer(x, P["gat2.W"], P["gat2.a"], sf, attn_out))
    return x @ P["enc.W"] + P["enc.b"]


def project(h: Tensor, P: dict[str, Tensor], half: str) -> Tensor:
    """Rows of ``h`` times the ``"top"`` (first endpoint) or ``"bottom"``
    (second endpoint) half of ``dec1.W``."""
    W = P["dec1.W"]
    d = W.shape[0] // 2
    lo = {"top": 0, "bottom": d}[half]
    return h @ ad.narrow(W, lo, lo + d)


def combine(
    top: Tensor, bot: Tensor, u_of_pair: np.ndarray, v_of_pair: np.ndarray,
    P: dict[str, Tensor],
) -> Tensor:
    """Logits of the pairs (``top[u_of_pair[k]]``, ``bot[v_of_pair[k]]``):
    the rest of the decoder after :func:`project`, without the sigmoid."""
    z = ad.relu(ad.rows(top, u_of_pair) + ad.rows(bot, v_of_pair) + P["dec1.b"])
    return z @ P["dec2.W"] + P["dec2.b"]


def decode_pairs(
    hidden: Tensor, us: np.ndarray, vs: np.ndarray, P: dict[str, Tensor]
) -> Tensor:
    """Link probability of each (u, v) pair, one row per pair: the sigmoid of
    :func:`combine`'s logits. The order of u and v matters.

    ``concat(h_u, h_v) @ dec1.W`` is evaluated as ``h_u @ W_top + h_v @ W_bot``:
    each distinct endpoint is projected once, then gathered per pair.
    """
    u_nodes, u_of_pair = np.unique(us, return_inverse=True)
    v_nodes, v_of_pair = np.unique(vs, return_inverse=True)
    top = project(ad.rows(hidden, u_nodes), P, "top")
    bot = project(ad.rows(hidden, v_nodes), P, "bottom")
    return ad.sigmoid(combine(top, bot, u_of_pair, v_of_pair, P))


def batch_loss(p_pos: Tensor, p_neg: Tensor | None) -> Tensor:
    """Binary cross-entropy: -mean log p+ - mean log(1 - p-), probabilities
    clamped to ``[LOSS_EPS, 1 - LOSS_EPS]``."""
    loss = ad.mean(-log_clamped(p_pos))
    if p_neg is not None and p_neg.data.size:
        one = ad.constant(np.asarray(1.0, dtype=p_neg.dtype))
        loss = loss + ad.mean(-log_clamped(one - p_neg))
    return loss


def log_clamped(p: Tensor) -> Tensor:
    return ad.log(ad.clip(p, LOSS_EPS, 1.0 - LOSS_EPS))


# ---------------------------------------------------------------------------
# batching


def sample_negatives(
    sf: SentenceFeatures, us: np.ndarray, vs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two in-sentence corruptions per positive: resample the v side, then the
    u side, keeping the counterpart fixed. Sides with a single token yield no
    negative.

    All draws are one ``rng.integers`` call over the sides' bounds in that
    order, which gives the same draws as one scalar call per side."""
    g = sf.graph
    starts, counts = np.array([g.offsets[lang] for lang in g.languages], dtype=np.int64).T
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    # per positive: the v side is resampled with u kept, then the u side with v kept
    kept = np.stack([us, vs], axis=1).ravel()
    moved = np.stack([vs, us], axis=1).ravel()
    is_v_side = np.tile([True, False], len(us))
    lang = g.node_lang[moved]
    live = counts[lang] >= 2
    kept, moved, is_v_side, lang = kept[live], moved[live], is_v_side[live], lang[live]
    drawn = starts[lang] + rng.integers(counts[lang] - 1)
    drawn += drawn >= moved  # skip the positive's own token
    return (
        np.where(is_v_side, kept, drawn),
        np.where(is_v_side, drawn, kept),
    )


def edge_batches(
    sf: SentenceFeatures, batch_size: int, rng: np.random.Generator
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    edges = sf.graph.edges
    if not len(edges):
        return
    perm = rng.permutation(len(edges))
    for start in range(0, len(edges), batch_size):
        chunk = edges[perm[start : start + batch_size]]
        yield chunk[:, 0], chunk[:, 1]


# ---------------------------------------------------------------------------
# optimizer


# Elements per AdamW pass. The chunks of p, g, m and v and the two scratch
# arrays (6 x 128 KiB in float32) stay in one core's 2 MiB L2. Median step
# times over the 1.22 M float32 parameters of a hidden-512 model (Xeon, 2 MiB
# L2, numpy 2.4.6): 9.8 ms at 16 K elements, 8.4 ms at 32 K and 64 K, 8.6 ms
# at 128 K, 10.7 ms unchunked and 12.2 ms with fresh whole-array temporaries.
_ADAMW_CHUNK = 1 << 15
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    """Decoupled weight decay (``WEIGHT_DECAY``) applied to the parameters
    before the adaptive step (``ADAM_BETAS``, ``ADAM_EPS``).

    Parameters are updated in place, in chunks of ``_ADAMW_CHUNK`` elements,
    through two preallocated scratch arrays: per element the arithmetic is the
    same expressions in the same order as on whole arrays, so the bits are too.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        arrays = list(params.values())
        if len({p.dtype for p in arrays}) > 1:
            raise ValueError("AdamW needs one dtype across the parameters")
        if not all(p.flags.c_contiguous for p in arrays):
            raise ValueError("AdamW updates C-contiguous parameters only")
        dtype = arrays[0].dtype if arrays else np.float64
        size = min(_ADAMW_CHUNK, max((p.size for p in arrays), default=0))
        self._a = np.empty(size, dtype=dtype)
        self._b = np.empty(size, dtype=dtype)
        self._finite = np.empty(size, dtype=bool)

    def _all_finite(self, g: np.ndarray) -> bool:
        flat = g.reshape(-1)
        for lo in range(0, flat.size, _ADAMW_CHUNK):
            chunk = flat[lo : lo + _ADAMW_CHUNK]
            ok = self._finite[: len(chunk)]
            np.isfinite(chunk, out=ok)
            if not ok.all():
                return False
        return True

    def step(self, grads: dict[str, np.ndarray | None]) -> None:
        """One update of the parameters that have a gradient; one without
        (``None`` or absent) is skipped, with no decay and no moment update. A
        non-finite or misshapen gradient raises before anything changes."""
        live = [
            (name, p, g)
            for name, p in self.params.items()
            if (g := grads.get(name)) is not None
        ]
        for name, p, g in live:
            if g.shape != p.shape:
                raise ValueError(f"gradient for {name} has shape {g.shape}, not {p.shape}")
            if not self._all_finite(g):
                raise NonFiniteGradientError(f"non-finite gradient for {name}")
        self.t += 1
        lr = self.lr
        decay = lr * WEIGHT_DECAY
        b1, b2 = ADAM_BETAS
        c1, c2 = 1.0 - b1, 1.0 - b2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p, g in live:
            p_flat = p.reshape(-1)
            m_flat = self.m[name].reshape(-1)
            v_flat = self.v[name].reshape(-1)
            g_flat = g.reshape(-1)
            for lo in range(0, p_flat.size, _ADAMW_CHUNK):
                hi = lo + _ADAMW_CHUNK
                pc, mc, vc, gc = p_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi], g_flat[lo:hi]
                a = self._a[: len(pc)]
                b = self._b[: len(pc)]
                # p -= (lr * wd) * p
                np.multiply(pc, decay, out=a)
                np.subtract(pc, a, out=pc)
                # m += (1 - b1) * (g - m)
                np.subtract(gc, mc, out=a)
                np.multiply(a, c1, out=a)
                np.add(mc, a, out=mc)
                # v += (1 - b2) * (g * g - v)
                np.multiply(gc, gc, out=a)
                np.subtract(a, vc, out=a)
                np.multiply(a, c2, out=a)
                np.add(vc, a, out=vc)
                # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(mc, bc1, out=a)
                np.multiply(a, lr, out=a)
                np.divide(vc, bc2, out=b)
                np.sqrt(b, out=b)
                np.add(b, ADAM_EPS, out=b)
                np.divide(a, b, out=a)
                np.subtract(pc, a, out=pc)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    batch_losses: list[float]
    sentences_used: list[str]


def _forward_loss(
    sf: SentenceFeatures,
    params: dict[str, np.ndarray],
    ablate: tuple[str, ...],
    us: np.ndarray,
    vs: np.ndarray,
    neg_u: np.ndarray,
    neg_v: np.ndarray,
) -> tuple[Tensor, dict[str, Tensor]]:
    """The loss of one batch and the parameter leaves it was computed from."""
    P = as_leaves(params)
    return _decode_loss(encode(sf, P, ablate), P, us, vs, neg_u, neg_v), P


def _decode_loss(
    hidden: Tensor,
    P: dict[str, Tensor],
    us: np.ndarray,
    vs: np.ndarray,
    neg_u: np.ndarray,
    neg_v: np.ndarray,
) -> Tensor:
    """The loss of one batch from the encoder output *hidden*: positives and
    negatives are decoded in one pass and split by row."""
    n_pos, n_all = len(us), len(us) + len(neg_u)
    p = decode_pairs(hidden, np.concatenate([us, neg_u]), np.concatenate([vs, neg_v]), P)
    p_neg = ad.narrow(p, n_pos, n_all) if n_all > n_pos else None
    return batch_loss(ad.narrow(p, 0, n_pos), p_neg)


def train_model(
    feats: Sequence[SentenceFeatures],
    config: TrainConfig,
    n_languages: int,
    vocab_size: int,
    word_table: np.ndarray | None = None,
) -> TrainResult:
    """One (or more) epochs over the sentence graphs.

    The encoder consumes the full sentence graph for every batch; encoder,
    decoder, and feature-embedding parameters are updated after each batch.
    When the pool exceeds ``train_sample`` a random subsample is drawn first.
    """
    usable = [sf for sf in feats if sf.graph.m > 0]
    if not usable:
        raise ValueError("training needs at least one graph with edges")
    rng = np.random.default_rng(config.seed)
    if len(usable) > config.train_sample:
        idx = rng.choice(len(usable), size=config.train_sample, replace=False)
        usable = [usable[i] for i in sorted(idx)]

    params = init_params(config, n_languages, vocab_size, rng, word_table)
    opt = AdamW(params, lr=config.lr)

    losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(usable))
        for si in order:
            sf = usable[si]
            srng = np.random.default_rng(
                derive_seed(config.seed, f"batch:{epoch}:{sf.graph.sentence_id}")
            )
            for us, vs in edge_batches(sf, config.batch_size, srng):
                neg_u, neg_v = sample_negatives(sf, us, vs, srng)
                loss, P = _forward_loss(sf, params, config.ablate, us, vs, neg_u, neg_v)
                loss.backward()
                opt.step({name: t.grad for name, t in P.items()})
                losses.append(float(loss.data))
                del loss, P  # one tape alive at a time: drop it before the next forward
    return TrainResult(
        params=params,
        batch_losses=losses,
        sentences_used=[sf.graph.sentence_id for sf in usable],
    )


# ---------------------------------------------------------------------------
# gradient verification

# Central-difference step, the relative error a sample may not reach, the
# floor of the relative error's denominator, and the positives per check.
GRADCHECK_H = 1e-5
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_DENOM_FLOOR = 1e-6
GRADCHECK_MAX_POSITIVES = 16


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    n_kink_skipped: int
    worst: tuple[str, int, float, float, float] | None  # name, index, analytic, fd, rel
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def compare_grads(
    forward: Callable[[str], float],
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    rng: np.random.Generator,
    sample_fraction: float = 0.01,
) -> GradCheckReport:
    """Central finite differences on a stratified random sample of parameters.

    ``forward(name)`` evaluates the loss while parameter *name* is perturbed.

    The relative error uses ``max(|analytic|, |fd|, GRADCHECK_DENOM_FLOOR)`` as
    the denominator: central differences at step ``GRADCHECK_H`` on an O(1)
    loss carry about ``1e-11`` of absolute noise in 64-bit, so components
    smaller than the floor can only be compared on an absolute scale. A
    parameter fails when one of its samples reaches ``GRADCHECK_TOLERANCE``.

    Samples whose two probe points land in different activation regions (a
    ReLU/LeakyReLU/clip kink lies within ``GRADCHECK_H`` of the evaluation
    point) are skipped and counted: the difference quotient does not estimate
    the derivative there. The region test compares traced activation masks
    and is independent of the measured values.
    """
    max_rel = 0.0
    worst = None
    failures: set[str] = set()
    checked = 0
    kinked = 0
    for name in sorted(params):
        arr = params[name]
        size = arr.size
        k = max(1, int(round(sample_fraction * size)))
        idx = rng.choice(size, size=min(k, size), replace=False)
        flat = arr.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + GRADCHECK_H
            with ad.trace_masks() as masks_plus:
                f_plus = forward(name)
            flat[i] = orig - GRADCHECK_H
            with ad.trace_masks() as masks_minus:
                f_minus = forward(name)
            flat[i] = orig
            if not ad.same_masks(masks_plus, masks_minus):
                kinked += 1
                continue
            fd = (f_plus - f_minus) / (2.0 * GRADCHECK_H)
            a = float(ana[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), GRADCHECK_DENOM_FLOOR)
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, int(i), a, fd, rel)
            if rel >= GRADCHECK_TOLERANCE:
                failures.add(name)
    return GradCheckReport(max_rel, checked, kinked, worst, sorted(failures))


def gradient_check(
    sf: SentenceFeatures,
    params: dict[str, np.ndarray],
    ablate: tuple[str, ...],
    seed: int = 0,
    sample_fraction: float = 0.01,
) -> GradCheckReport:
    """Verify analytic gradients of encoder+decoder+loss in 64-bit arithmetic,
    on a batch of at most ``GRADCHECK_MAX_POSITIVES`` positives and their
    negatives (see :func:`compare_grads`).

    A probe of a decoder parameter (``dec*``) cannot change the encoder
    output, so it decodes from the unperturbed one instead of encoding again.
    """
    rng = np.random.default_rng(seed)
    params64 = {k: v.astype(np.float64) for k, v in params.items()}
    edges = sf.graph.edges
    if not len(edges):
        raise ValueError("gradient check needs a graph with edges")
    take = min(GRADCHECK_MAX_POSITIVES, len(edges))
    sel = rng.choice(len(edges), size=take, replace=False)
    us, vs = edges[sel, 0], edges[sel, 1]
    neg_u, neg_v = sample_negatives(sf, us, vs, rng)

    P = as_leaves(params64)
    hidden = encode(sf, P, ablate)
    _decode_loss(hidden, P, us, vs, neg_u, neg_v).backward()
    analytic = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in P.items()
    }
    unperturbed = Tensor(hidden.data)

    def forward(name: str) -> float:
        P = as_leaves(params64)
        h = unperturbed if name.startswith("dec") else encode(sf, P, ablate)
        return float(_decode_loss(h, P, us, vs, neg_u, neg_v).data)

    return compare_grads(forward, params64, analytic, rng, sample_fraction=sample_fraction)
