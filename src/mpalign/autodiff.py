"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the link predictor needs are implemented: matmul,
broadcasting add/mul/sub/div, gather/slice of rows, segment sums, attention
aggregation (``attend``, one sparse product), concat,
ReLU/LeakyReLU/sigmoid/exp/log/clip, and full reductions. Gradients follow the
dtype of the forward data (float32 for training, float64 for gradient checks).
"""

import numpy as np
import scipy.sparse as sp


_ACTIVE_MASK_TRACES: list[list] = []


class trace_masks:
    """Context manager collecting every activation mask computed inside it.

    Finite differences on a piecewise-smooth function are only valid when both
    probe points fall into the same linear region; comparing traced masks
    detects probes that crossed a ReLU/LeakyReLU/clip kink.
    """

    def __init__(self):
        self.masks: list[np.ndarray] = []

    def __enter__(self) -> list[np.ndarray]:
        _ACTIVE_MASK_TRACES.append(self.masks)
        return self.masks

    def __exit__(self, *exc):
        _ACTIVE_MASK_TRACES.pop()
        return False


def _record_mask(mask: np.ndarray) -> None:
    for trace in _ACTIVE_MASK_TRACES:
        trace.append(mask)


def same_masks(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum *grad* over broadcast axes so it matches *shape*."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accumulate(self, grad: np.ndarray, rows: slice | None = None) -> None:
        """Add *grad* to ``self.grad``, or to its *rows* only.

        A first gradient is stored as it is, and later ones are added in
        place, so a caller hands over an array no other tensor holds: the
        backward functions copy the ones they share (``__add__``, ``concat``).
        """
        if rows is not None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[rows] += grad
        elif self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse accumulation from this (scalar) tensor."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            for t in (self, other):
                if t.requires_grad:
                    part = _unbroadcast(g, t.data.shape)
                    t._accumulate(part.copy() if part is g else part)

        return Tensor(self.data + other.data, parents=(self, other), backward=backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor(-self.data, parents=(self,), backward=backward)

    def __sub__(self, other):
        return self + (-_as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward=backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor(self.data / other.data, parents=(self, other), backward=backward)

    def __matmul__(self, other):
        other = _as_tensor(other, self.dtype)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor(self.data @ other.data, parents=(self, other), backward=backward)


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)`` as a mask product. Adding +0.0 turns the -0.0 that a
    negative entry times 0 gives into +0.0, so for finite input the bits are
    those of ``np.where(x > 0, x, 0.0)``."""
    mask = x.data > 0
    _record_mask(mask)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    out = x.data * mask
    out += 0.0
    return Tensor(out, parents=(x,), backward=backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.data > 0
    _record_mask(mask)
    scale = np.where(mask, 1.0, slope).astype(x.dtype)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * scale)

    return Tensor(x.data * scale, parents=(x,), backward=backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out * (1.0 - out))

    return Tensor(out, parents=(x,), backward=backward)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out)

    return Tensor(out, parents=(x,), backward=backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x._accumulate(g / x.data)

    return Tensor(np.log(x.data), parents=(x,), backward=backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data >= lo) & (x.data <= hi)
    _record_mask(inside)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * inside)

    return Tensor(np.clip(x.data, lo, hi), parents=(x,), backward=backward)


def mean(x: Tensor) -> Tensor:
    size = x.data.size

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g / size))

    return Tensor(
        np.asarray(x.data.mean(), dtype=x.dtype), parents=(x,), backward=backward
    )


def rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows (axis 0); repeated indices accumulate gradient."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(_scatter_rows(g, idx, x.data.shape[0]))

    return Tensor(x.data[idx], parents=(x,), backward=backward)


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Row ``r`` of the result sums the rows ``k`` of *g* with ``idx[k] == r``.

    A one-hot CSR product whose rows list their ``k`` in ascending order, so
    each row is summed in the order ``np.add.at`` would use: same bits.
    """
    idx = np.asarray(idx, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n), out=indptr[1:])
    order = np.argsort(idx, kind="stable")
    onehot = sp.csr_array(
        (np.ones(len(idx), dtype=g.dtype), order, indptr), shape=(n, len(idx))
    )
    return onehot @ g


def narrow(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice (axis 0)."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(g, rows=slice(start, stop))

    return Tensor(x.data[start:stop], parents=(x,), backward=backward)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                p._accumulate(g[tuple(sl)].copy())

    return Tensor(
        np.concatenate([p.data for p in parts], axis=axis),
        parents=tuple(parts),
        backward=backward,
    )


def segment_sum(x: Tensor, starts: np.ndarray) -> Tensor:
    """Sum of row segments; segments are contiguous and non-empty."""
    counts = np.diff(np.append(starts, x.data.shape[0]))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.repeat(g, counts, axis=0))

    return Tensor(
        np.add.reduceat(x.data, starts, axis=0), parents=(x,), backward=backward
    )


def attend(alpha: Tensor, values: Tensor, nbr: np.ndarray, starts: np.ndarray) -> Tensor:
    """Attention-weighted sums: row ``c`` of the result is the sum over node
    ``c``'s slots ``k`` of ``alpha[k] * values[nbr[k]]``.

    The slots of node ``c`` are ``starts[c]`` up to the next start, and
    *alpha* holds one weight per slot, shape (slots, 1). The forward is one
    CSR product ``A @ values`` with ``A[c, nbr[k]] = alpha[k]``, summed in
    slot order; the backward is ``A.T @ g`` for *values* and, for *alpha*,
    one row dot per slot, ``g[c] . values[nbr[k]]``.
    """
    n = len(starts)
    indptr = np.append(starts, len(nbr))
    A = sp.csr_array((alpha.data.reshape(-1), nbr, indptr), shape=(n, values.shape[0]))

    def backward(g):
        if values.requires_grad:
            values._accumulate(A.T @ g)
        if alpha.requires_grad:
            center = np.repeat(np.arange(n), np.diff(indptr))
            alpha._accumulate(
                np.einsum("ij,ij->i", g[center], values.data[nbr])[:, None]
            )

    return Tensor(A @ values.data, parents=(alpha, values), backward=backward)


def segment_max_constant(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment max treated as a constant (softmax shift)."""
    return np.maximum.reduceat(values, starts, axis=0)
