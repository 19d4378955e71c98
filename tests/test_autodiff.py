"""Finite-difference checks for every autodiff op."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mpalign import autodiff as ad
from mpalign.autodiff import Tensor
from mpalign.features import attention_slots

from oracles import arbitrary_graph, gat_aggregate_reference, random_multilingual_graph


def fd_check(build, arrays, h=1e-6, tol=1e-6):
    """build(tensors) -> scalar Tensor; compare grads to central differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()
    for t, arr in zip(tensors, arrays):
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(build(tensors).data)
            flat[i] = orig - h
            f_minus = float(build(tensors).data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=tol, rel=1e-4)


@pytest.fixture
def arrs(rng):
    return [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]


def test_add_mul_sub(arrs):
    fd_check(lambda ts: ad.mean((ts[0] + ts[1]) * ts[0] - ts[1]), arrs)


def test_broadcast_add_bias(rng):
    fd_check(
        lambda ts: ad.mean(ts[0] + ts[1]),
        [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))],
    )


def test_matmul(rng):
    fd_check(
        lambda ts: ad.mean(ts[0] @ ts[1]),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
    )


def test_div(rng):
    fd_check(
        lambda ts: ad.mean(ts[0] / (ts[1] * ts[1] + 1.0)),
        [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))],
    )


def test_relu_and_leaky(rng):
    x = rng.normal(size=(4, 4)) + 0.05  # keep clear of the kink
    fd_check(lambda ts: ad.mean(ad.relu(ts[0])), [x])
    fd_check(lambda ts: ad.mean(ad.leaky_relu(ts[0], 0.2)), [x])


def test_sigmoid_log_exp(rng):
    x = rng.normal(size=(3, 3))
    fd_check(lambda ts: ad.mean(ad.log(ad.sigmoid(ts[0]) + 0.1)), [x])
    fd_check(lambda ts: ad.mean(ad.exp(ts[0] * 0.3)), [x])


def test_clip_passthrough_inside(rng):
    x = rng.uniform(0.2, 0.8, size=(3, 3))
    fd_check(lambda ts: ad.mean(ad.clip(ts[0], 0.0, 1.0)), [x])


def test_clip_zero_outside():
    x = np.array([[2.0, -2.0]])
    t = Tensor(x, requires_grad=True)
    out = ad.mean(ad.clip(t, 0.0, 1.0))
    out.backward()
    assert not t.grad.any()


def test_rows_gather_accumulates(rng):
    x = rng.normal(size=(4, 3))
    idx = np.array([0, 2, 0, 1])
    fd_check(lambda ts: ad.mean(ad.rows(ts[0], idx) * 2.0), [x])


def test_narrow(rng):
    fd_check(lambda ts: ad.mean(ad.narrow(ts[0], 1, 3)), [rng.normal(size=(4, 2))])


def test_concat(rng):
    fd_check(
        lambda ts: ad.mean(ad.concat([ts[0], ts[1]], axis=1) * ts[2]),
        [rng.normal(size=(3, 2)), rng.normal(size=(3, 3)), rng.normal(size=(3, 5))],
    )


def test_segment_sum(rng):
    x = rng.normal(size=(6, 2))
    starts = np.array([0, 2, 5])
    fd_check(lambda ts: ad.mean(ad.segment_sum(ts[0], starts) * 3.0), [x])


def test_segment_softmax_composition(rng):
    # softmax per segment built from exp / segment_sum / rows
    x = rng.normal(size=(6, 1))
    starts = np.array([0, 2, 5])
    seg_ids = np.array([0, 0, 1, 1, 1, 2])

    def build(ts):
        shift = ad.segment_max_constant(ts[0].data, starts)
        e = ad.exp(ts[0] - ad.constant(shift[seg_ids]))
        denom = ad.segment_sum(e, starts)
        alpha = e / ad.rows(denom, seg_ids)
        return ad.mean(alpha * ad.constant(np.arange(6.0).reshape(6, 1)))

    fd_check(build, [x])


def test_softmax_values_sum_to_one(rng):
    x = Tensor(rng.normal(size=(5, 1)))
    starts = np.array([0, 3])
    seg_ids = np.array([0, 0, 0, 1, 1])
    shift = ad.segment_max_constant(x.data, starts)
    e = ad.exp(x - ad.constant(shift[seg_ids]))
    denom = ad.segment_sum(e, starts)
    alpha = (e / ad.rows(denom, seg_ids)).data
    sums = np.add.reduceat(alpha, starts, axis=0)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_backward_requires_scalar(rng):
    t = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (t * 2.0).backward()


def test_grad_accumulates_across_reuse(rng):
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = ad.mean(x * 3.0 + x * 2.0)
    out.backward()
    np.testing.assert_allclose(x.grad, np.full((1, 2), 2.5))


def test_dtype_preserved():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = ad.relu(x * 0.5 + 1.0)
    assert y.dtype == np.float32
    ad.mean(y).backward()
    assert x.grad.dtype == np.float32


def add_at_reference(g, idx, n):
    acc = np.zeros((n,) + g.shape[1:], dtype=g.dtype)
    np.add.at(acc, idx, g)
    return acc


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 512])
@pytest.mark.parametrize(
    "n,idx",
    [
        (5, [3, 0, 3, 1, 0, 3, 2]),  # repeated, unsorted; row 4 never gathered
        (4, []),
        (48, np.random.default_rng(7).integers(0, 48, size=375)),
    ],
)
def test_rows_backward_bit_identical_to_add_at(dtype, width, n, idx):
    rng = np.random.default_rng(11)
    idx = np.asarray(idx, dtype=np.int64)
    x = Tensor(rng.normal(size=(n, width)).astype(dtype), requires_grad=True)
    y = ad.rows(x, idx)
    g = rng.normal(size=y.shape).astype(dtype)
    y._backward(g)
    expected = add_at_reference(g, idx, n)
    assert x.grad.dtype == dtype and x.grad.shape == (n, width)
    assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("direct_first", [True, False])
def test_narrow_slices_and_direct_use_accumulate(rng, direct_first):
    w = [rng.normal(size=(3, 3)), rng.normal(size=(4, 3)), rng.normal(size=(5, 3))]

    def build(ts):
        x = ts[0]
        direct = ad.mean(x * w[2])
        sliced = ad.mean(ad.narrow(x, 0, 3) * w[0]) + ad.mean(ad.narrow(x, 1, 5) * w[1])
        return direct + sliced if direct_first else sliced + direct

    fd_check(build, [rng.normal(size=(5, 3))])
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    build([x]).backward()
    expected = w[2] / 15
    expected[:3] += w[0] / 9
    expected[1:] += w[1] / 12
    np.testing.assert_allclose(x.grad, expected, atol=1e-15)


@pytest.mark.parametrize("sum_first", [True, False])
def test_first_gradient_is_not_shared(rng, sum_first):
    """``a + b`` hands both operands one array; each must own its gradient."""
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    c = (a * 3.0) * 1.0
    out = ad.mean((a + b) + c) if sum_first else ad.mean(c + (a + b))
    out.backward()
    np.testing.assert_allclose(a.grad, np.full((2, 2), 1.0))
    np.testing.assert_allclose(b.grad, np.full((2, 2), 0.25))


def paper_scale_graph():
    """The 84-language sentence graph of ``benchmarks/bench_kernels.py``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paper_scale_graph()


def attend_cases():
    rng = np.random.default_rng(5)
    yield "isolated", arbitrary_graph(6, [(0, 1), (1, 4)]), 16  # nodes 2, 3, 5: one slot
    yield "edgeless", arbitrary_graph(3, []), 16
    for k in range(4):
        yield f"random{k}", random_multilingual_graph(rng, 4, 7, 0.4), 512
    yield "paper-scale", paper_scale_graph(), 8


ATTEND_CASES = list(attend_cases())


def sum_bound(alpha, values, nbr, starts, rtol):
    """``rtol`` times the sum of the terms' magnitudes, per output element:
    the scale of any reordering's rounding, also where the sum cancels."""
    return rtol * np.add.reduceat(np.abs(values[nbr] * alpha), starts, axis=0)


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("case", ATTEND_CASES, ids=[c[0] for c in ATTEND_CASES])
def test_attend_matches_gather_reduceat(case, dtype, rtol):
    _, g, width = case
    rng = np.random.default_rng(3)
    _, nbr, starts = attention_slots(g)
    alpha_np = rng.random((len(nbr), 1)).astype(dtype)
    values_np = rng.normal(size=(g.n, width)).astype(dtype)
    out_np = rng.normal(size=(g.n, width)).astype(dtype)

    results = []
    for op in (ad.attend, gat_aggregate_reference):
        alpha = Tensor(alpha_np, requires_grad=True)
        values = Tensor(values_np, requires_grad=True)
        out = op(alpha, values, nbr, starts)
        ad.mean(out * Tensor(out_np)).backward()
        results.append((out.data, values.grad, alpha.grad))
    (got, g_values, g_alpha), (ref, ref_values, ref_alpha) = results
    assert got.dtype == g_values.dtype == g_alpha.dtype == dtype
    assert got.shape == ref.shape and g_alpha.shape == alpha_np.shape
    assert np.all(np.abs(got - ref) <= sum_bound(alpha_np, values_np, nbr, starts, rtol))
    np.testing.assert_allclose(g_values, ref_values, rtol=rtol, atol=rtol * np.abs(ref_values).max())
    np.testing.assert_allclose(g_alpha, ref_alpha, rtol=rtol, atol=rtol * np.abs(ref_alpha).max())


def test_attend_finite_differences(rng):
    # node 2 has only its self slot
    g = arbitrary_graph(4, [(0, 1), (0, 3), (1, 3)])
    _, nbr, starts = attention_slots(g)
    w = rng.normal(size=(4, 3))
    fd_check(
        lambda ts: ad.mean(ad.attend(ts[0], ts[1], nbr, starts) * w),
        [rng.random((len(nbr), 1)), rng.normal(size=(4, 3))],
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bitwise_equals_where(dtype):
    x = np.array(
        [[0.0, -0.0, 1.5, -2.5], [1e-40, -1e-40, np.finfo(dtype).max, -np.finfo(dtype).max]],
        dtype=dtype,
    )
    x = np.concatenate([x, np.random.default_rng(0).normal(size=(8, 4)).astype(dtype)])
    out = ad.relu(Tensor(x)).data
    assert out.dtype == dtype
    assert out.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attend_weight_gradient_is_chunked_and_bit_identical(dtype):
    """50,000 slots at h = 64: the backward peaks below one (slots x h)
    gather, and the weight gradient has the whole-array einsum's bits."""
    import tracemalloc

    rng = np.random.default_rng(9)
    n, per_node, h = 5000, 10, 64
    starts = np.arange(0, n * per_node, per_node)
    nbr = rng.integers(0, n, size=n * per_node)
    alpha = Tensor(rng.random((len(nbr), 1)).astype(dtype), requires_grad=True)
    values = Tensor(rng.normal(size=(n, h)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(n, h)).astype(dtype)
    out = ad.attend(alpha, values, nbr, starts)
    gather_bytes = len(nbr) * h * np.dtype(dtype).itemsize

    tracemalloc.start()
    try:
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gather_bytes
    center = np.repeat(np.arange(n), per_node)
    whole = np.einsum("ij,ij->i", g[center], values.data[nbr])[:, None]
    assert alpha.grad.dtype == dtype and alpha.grad.tobytes() == whole.tobytes()
