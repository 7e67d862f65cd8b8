"""Reverse-mode tape checked against finite differences and numpy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpose import autodiff as ag
from flowpose import metrics, nets, synth, training
from flowpose import distributions as dist

small_arrays = st.lists(st.floats(-2, 2), min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2))


def test_values_match_numpy(rng):
    x = rng.normal(size=(3, 4))
    n = ag.leaf(x)
    np.testing.assert_allclose(ag.as_array(ag.exp(n)), np.exp(x))
    np.testing.assert_allclose(ag.as_array(ag.log(ag.exp(n))), x, atol=1e-12)
    np.testing.assert_allclose(ag.as_array(ag.softmax(n)),
                               np.exp(x) / np.exp(x).sum(-1, keepdims=True),
                               atol=1e-12)


@pytest.mark.parametrize("op", [
    lambda x, y: x * y + x - y,
    lambda x, y: ag.log(1.0 + ag.exp(x)) * ag.exp(-0.1 * y),
    lambda x, y: x / (2.0 + y * y),
    lambda x, y: ag.sqrt(x * x + y * y + 1.0),
])
def test_elementwise_grads(op, rng):
    x = ag.leaf(rng.normal(size=(3, 3)))
    y = ag.leaf(rng.normal(size=(3, 3)))
    assert ag.finite_diff_check(lambda: ag.reduce_sum(op(x, y)), [x, y]) < 1e-6


@pytest.mark.parametrize("node_first", [True, False])
def test_binary_op_takes_no_adjoint_of_a_constant(rng, node_first):
    def unused(*args):
        raise AssertionError("adjoint of a constant operand computed")

    x, c = ag.leaf(rng.normal(size=(2, 3))), rng.normal(size=3)
    vjps = (lambda g, a, b, o: g * b, unused) if node_first else (unused, lambda g, a, b, o: g * a)
    out = ag._binary(*((x, c) if node_first else (c, x)), np.multiply, *vjps)
    assert out.parents == (x,)
    ag.backward(ag.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, np.broadcast_to(c, (2, 3)))


def test_broadcasting_grad(rng):
    x = ag.leaf(rng.normal(size=(4, 3)))
    b = ag.leaf(rng.normal(size=(3,)))
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.exp(0.5 * (x + b))), [x, b]) < 1e-6


def test_softmax_concat_take_grads(rng):
    x = ag.leaf(rng.normal(size=(3, 4)))
    y = ag.leaf(rng.normal(size=(3, 2)))
    w = rng.normal(size=(3, 6))

    def f():
        z = ag.concat([ag.softmax(x), y], axis=-1)
        return ag.reduce_sum(z * w)

    assert ag.finite_diff_check(f, [x, y]) < 1e-6
    idx = (np.array([0, 2, 1]), slice(None))
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.take(x, idx)), [x]) < 1e-6


def test_l2norm_cross_dot_grads(rng):
    a = ag.leaf(rng.normal(size=3) + np.array([2.0, 0, 0]))
    b = ag.leaf(rng.normal(size=3))
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.cross(a, b) * np.array([1.0, -2.0, 0.5])),
        [a, b]) < 1e-6


def test_special_orthogonalize_grad(rng):
    m = ag.leaf(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.special_orthogonalize_op(m) * w), [m]) < 1e-5


def test_ndarray_left_operand_defers_to_node(rng):
    # without this, numpy eagerly broadcasts Node into an object array
    x = ag.leaf(np.ones(3))
    out = np.array([1.0, 2.0, 3.0]) - x
    assert isinstance(out, ag.Node)
    np.testing.assert_allclose(ag.as_array(out), [0.0, 1.0, 2.0])


def test_backward_accumulates_fan_out(rng):
    x = ag.leaf(np.array(2.0))
    y = x * x + 3.0 * x
    ag.backward(y)
    assert abs(x.grad - 7.0) < 1e-12


def test_grad_reset_between_backward_calls():
    x = ag.leaf(np.array(1.5))
    ag.backward(x * x)
    g1 = float(x.grad)
    ag.backward(x * x)
    assert abs(float(x.grad) - g1) < 1e-12


@given(small_arrays, small_arrays)
@settings(max_examples=30, deadline=None)
def test_add_mul_grads_property(a, b):
    x, y = ag.leaf(a), ag.leaf(b)
    ag.backward(ag.reduce_sum(x * y + x))
    np.testing.assert_allclose(x.grad, b + 1.0, atol=1e-12)
    np.testing.assert_allclose(y.grad, a, atol=1e-12)


def _ndtr_inputs(name):
    """A dense grid, scaled normal draws, or the edges of Cephes ndtr's branches in
    a = sqrt(2) x (|x| = 1/sqrt(2), 1 and 8, the MAXLOG underflow at |a| ~ 37.7) with the
    special values."""
    if name == "grid":
        return np.linspace(-40.0, 40.0, 1_600_001)
    rng = np.random.default_rng(0)
    if name == "draws":
        return rng.normal(size=1_000_000) * np.exp(rng.uniform(-4.0, 4.0, 1_000_000))
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 1.0 / np.sqrt(2.0), 8.0])
    edges = edges[:, None] + np.arange(-8, 9) * np.spacing(edges)[:, None]
    special = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e200, 1e308, np.inf]
    half = np.concatenate([edges.ravel(), np.linspace(37.5, 38.6, 20_001), special])
    return np.concatenate([half, -half, [np.nan]])


@pytest.mark.parametrize("name", ["grid", "draws", "edges"])
def test_normal_cdf_is_scipy_ndtr_bit_for_bit(name):
    from scipy.special import ndtr
    a = _ndtr_inputs(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ag.normal_cdf(a)
        want = ndtr(a)
    assert got.dtype == np.float64 and got.shape == a.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), a[got != want][:5]


def test_normal_cdf_keeps_the_shape(rng):
    from scipy.special import ndtr
    for a in (np.array(0.3), np.array(3.0), np.zeros(0), rng.normal(scale=3.0, size=(4, 5))):
        got = ag.normal_cdf(a)
        assert got.shape == a.shape and np.array_equal(got, ndtr(a))


def test_normal_cdf_forms_the_erfc_tail_only_for_rows_in_it(rng, monkeypatch):
    # |a| < sqrt(2) puts every row below |x| = 1, where erf alone serves
    from scipy.special import ndtr
    calls, real = [], ag._erfc_tail
    monkeypatch.setattr(ag, "_erfc_tail", lambda z: calls.append(len(z)) or real(z))
    below = rng.uniform(-1.41, 1.41, 128)
    for a in (below, np.zeros(0), np.zeros((0, 3))):
        assert np.array_equal(ag.normal_cdf(a), ndtr(a))
    assert calls == []
    mixed = np.concatenate([below, [-3.0, 2.0]])
    assert np.array_equal(ag.normal_cdf(mixed), ndtr(mixed)) and calls == [2]


def test_normal_cdf_grad(rng):
    x = ag.leaf(rng.normal(scale=2.0, size=(3, 4)))
    assert ag.finite_diff_check(lambda: ag.reduce_sum(ag.normal_cdf(x)), [x]) < 1e-6


def test_log_domain_error():
    with pytest.raises(ag.DomainError):
        ag.log(ag.leaf(np.array([-1.0])))


def _special_orthogonalize_value(m):
    """Reference projection of one 3x3 matrix onto SO(3), by its own SVD."""
    u, s, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _so3_batch(rng, b=6):
    """(b,9) matrices with well-separated singular values; every other one
    has det < 0, so the projection flips its last singular direction."""
    out = []
    for i in range(b):
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = u @ np.diag(rng.uniform(0.5, 1.5) * np.array([3.0, 2.0, 1.0])) @ v.T
        if (np.linalg.det(m) < 0) != (i % 2 == 1):
            m = -m
        out.append(m.ravel())
    return np.array(out)


def test_special_orthogonalize_batched_matches_per_row(rng):
    x = _so3_batch(rng)
    assert (np.linalg.det(x.reshape(-1, 3, 3)) < 0).sum() == 3
    q = ag.special_orthogonalize_op(x)
    for row, qrow in zip(x, q):
        np.testing.assert_allclose(
            qrow, _special_orthogonalize_value(row.reshape(3, 3)).ravel(),
            rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(q.reshape(-1, 3, 3)), 1.0, atol=1e-12)


def test_special_orthogonalize_batched_grad(rng):
    m = ag.leaf(_so3_batch(rng))
    w = rng.normal(size=m.shape)
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.special_orthogonalize_op(m) * w), [m]) < 1e-6


def test_gather_rows_repeats_and_grads(rng):
    x = ag.leaf(rng.normal(size=(3, 4)))
    idx = np.array([0, 0, 2, 1, 2, 2])
    np.testing.assert_array_equal(ag.as_array(ag.gather_rows(x, idx)), x.value[idx])
    w = rng.normal(size=(6, 4))
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(ag.gather_rows(x, idx) * w), [x]) < 1e-6


def test_fused_vjp_runs_once_and_skips_constants(rng):
    x = ag.leaf(rng.normal(size=3))
    calls = []

    def vjp(ga, gb):
        calls.append(1)
        return 2.0 * ga + 3.0 * gb, None

    a, b = ag.fused((2.0 * x.value, 3.0 * x.value), (x, np.ones(3)), vjp)
    assert a.parents == b.parents and a.parents[0].parents == (x,)
    ag.backward(ag.reduce_sum(a) + ag.reduce_sum(b * b))
    assert len(calls) == 1
    np.testing.assert_allclose(x.grad, 2.0 + 18.0 * x.value, atol=1e-12)
    plain = ag.fused((x.value, x.value), (x.value,), vjp)
    assert not any(isinstance(v, ag.Node) for v in plain)


def test_mlp_node_grads(rng):
    store = nets.ParamStore()
    nets.mlp_init(store, "m", 5, 7, 8, 2, rng, zero_final=False)
    for node in store.leaves():
        node.value = node.value + 0.3 * rng.normal(size=node.value.shape)
    params = dict(zip(store.names(), store.leaves()))
    assert len(params) == 12
    x = ag.leaf(rng.normal(size=(4, 5)))
    w = rng.normal(size=(4, 7))
    out = nets.mlp_apply(params, "m", x, 2)
    assert out.parents[0] is x and len(out.parents) == 13   # one node
    np.testing.assert_allclose(
        nets.mlp_apply(store.values(), "m", x.value, 2), out.value, rtol=0, atol=0)
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(nets.mlp_apply(params, "m", x, 2) * w),
        [x] + store.leaves()) < 1e-6


def test_every_op_is_reached_by_training_and_evaluation(monkeypatch, toy_model):
    # an op that no toy fit, two-phase training or solver-refined evaluation
    # records is code nothing needs
    untracked = {"Node", "as_array", "leaf", "backward", "finite_diff_check"}
    ops = [n for n in ag.__all__
           if n not in untracked and not isinstance(getattr(ag, n), type)]
    reached = set()
    for name in ops:
        def wrapped(*args, _op=getattr(ag, name), _name=name, **kwargs):
            reached.add(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(ag, name, wrapped)
    rng = np.random.default_rng(3)
    training.fit_toy_distribution([dist.uniform_sample(rng) for _ in range(2)],
                                  steps=2, batch=16, seed=3, report_samples=4)
    data = synth.gen_dataset(toy_model, 4, synth.standard_rig(1), synth.NoiseSpec(1.0), seed=3)
    cfg = training.TrainConfig(phase1_epochs=1, phase2_epochs=1, seed=3)
    flow, extra, _ = training.train(toy_model, data, cfg)
    metrics.evaluate(flow, training.make_encoder(extra, cfg.blocks), toy_model, data[:2],
                     n_samples=3, use_solver=True)
    assert sorted(set(ops) - reached) == []
