"""Möbius couplings and the conditional flow: invertibility, volume, density."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpose import autodiff as ag
from flowpose import distributions as dist
from flowpose import flow as fl
from flowpose.rotation import (Rotation, axis_angle_exp, axis_angle_log,
                               geodesic_distance, matrix_to_quat, matrix_to_quats,
                               quat_to_matrices)


def _perturbed_model(rng, scale=0.2, **kw):
    cfg = fl.FlowConfig(n_joints=kw.pop("n_joints", 1), context_dim=3,
                        shape_dim=1, k_transforms=8, n_sets=2, channels=16,
                        blocks=1, **kw)
    model = fl.FlowModel(cfg, rng)
    for k, node in zip(model.params.names(), model.params.leaves()):
        if k.endswith("w_out"):
            node.value = node.value + scale * rng.normal(size=node.value.shape)
    return model


def _orthonormal_pair(rng):
    u1 = rng.normal(size=3)
    u1 /= np.linalg.norm(u1)
    t = rng.normal(size=3)
    u2 = t - (t @ u1) * u1
    return u1, u2 / np.linalg.norm(u2)


@pytest.mark.parametrize("field, value", [
    ("n_joints", 0), ("k_transforms", 0), ("n_sets", 0), ("channels", 0),
    ("k_transforms", 2.5), ("n_sets", True), ("blocks", -1), ("context_dim", -1),
    ("embed_dim", 1.0), ("kappa", True), ("kappa", "2"), ("kappa", np.inf), ("kappa", np.nan),
    ("kappa", 0)])
def test_flow_config_rejects_bad_sizes(field, value):
    sizes = dict(n_joints=1, context_dim=1, shape_dim=1)
    with pytest.raises(ValueError, match=field):
        fl.FlowConfig(**{**sizes, field: value})


def constrain_omega(raw):
    """Reference: one omega 3-vector mapped into the ball of radius 1 - 1e-3."""
    n = np.linalg.norm(raw)
    if n == 0.0:
        return np.zeros(3)
    return raw * (np.tanh(n) * (1.0 - fl.OMEGA_MARGIN) / n)


def mobius_map(z, c):
    """Reference: the unit-circle Möbius transform f(z) = (z + c) / (c* z + 1)."""
    return (z + c) / (np.conj(c) * z + 1.0)


def _mobius_fwd(held, moving, omegas, w):
    """One row through the Möbius kernel: omegas (k,3), weights (k,)."""
    moved, logdet = fl._mobius_fwd_batch(held[None], moving[None], *omegas.T[:, None], w[None])
    return ag.as_array(moved)[0], float(ag.as_array(logdet)[0])


def _mobius_inv(moved, held, omegas, w):
    return fl._mobius_inv_batch(moved[None], held[None], *omegas.T[:, None], w[None])[0][0]


def test_constrain_omega_in_ball(rng):
    for scale in (0.1, 1.0, 100.0):
        raw = rng.normal(scale=scale, size=(5, 3))
        v = np.concatenate(fl._constrain_omega_batch(raw, 1), axis=1)
        assert (np.linalg.norm(v, axis=1) <= 1.0 - 1e-3 + 1e-12).all()
    assert not np.concatenate(fl._constrain_omega_batch(np.zeros((1, 3)), 1)).any()


def test_mobius_forward_inverse_roundtrip(rng):
    for _ in range(50):
        held, moving = _orthonormal_pair(rng)
        omegas = np.array([constrain_omega(rng.normal(scale=0.5, size=3))
                           for _ in range(8)])
        w = rng.dirichlet(np.ones(8))
        moved, logdet = _mobius_fwd(held, moving, omegas, w)
        # the inverse stops on output-space angle error, so verify the
        # roundtrip in that direction: forward(inverse(y)) vs y
        rec = _mobius_inv(moved, held, omegas, w)
        again, _ = _mobius_fwd(held, rec, omegas, w)
        ang = np.arccos(np.clip(again @ moved, -1.0, 1.0))
        assert ang < 1e-4
        assert np.isfinite(logdet)


def test_mobius_identity_at_zero_omega(rng):
    held, moving = _orthonormal_pair(rng)
    moved, logdet = _mobius_fwd(held, moving, np.zeros((8, 3)),
                                np.ones(8) / 8)
    np.testing.assert_allclose(moved, moving, atol=1e-12)
    assert abs(logdet) < 1e-12


def test_mobius_kernel_matches_closed_form(rng):
    # k = 1, w = 1: the step is f(z) = (z + c) / (c* z + 1) on the unit circle of
    # the (moving, moving x held) plane, with moving at z = 1
    n = 200
    pairs = [_orthonormal_pair(rng) for _ in range(n)]
    held, moving = (np.array(v) for v in zip(*pairs))
    omegas = np.array([constrain_omega(rng.normal(scale=s, size=3))
                       for s in rng.uniform(0.1, 3.0, n)])
    u3 = np.cross(moving, held)
    c = (omegas * moving).sum(axis=1) + 1j * (omegas * u3).sum(axis=1)
    moved, logdet = fl._mobius_fwd_batch(held, moving, *omegas.T[:, :, None], np.ones((n, 1)))
    f1 = mobius_map(1.0, c)
    angle = np.arctan2((moved * u3).sum(axis=1), (moved * moving).sum(axis=1))
    np.testing.assert_allclose(np.exp(1j * angle), f1, rtol=0, atol=1e-12)
    np.testing.assert_allclose((moved * held).sum(axis=1), 0.0, atol=1e-12)
    # log |f'(1)|, f'(z) = (1 - |c|^2) / (c* z + 1)^2
    np.testing.assert_allclose(logdet, np.log(np.abs((1 - np.abs(c) ** 2)
                                                     / (np.conj(c) + 1.0) ** 2)),
                               rtol=1e-12, atol=1e-12)


def test_coupling_logdet_matches_chart_jacobian(rng):
    # central-difference 3x3 Jacobian in exponential charts at input/output
    model = _perturbed_model(rng)
    h = 1e-5
    for _ in range(20):
        r = dist.uniform_sample(rng)
        ctx = rng.normal(size=3)
        out0, ld = model.coupling_block(r, ctx)
        jac = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            op = model.coupling_block(r.compose(axis_angle_exp(e)), ctx)[0]
            om = model.coupling_block(r.compose(axis_angle_exp(-e)), ctx)[0]
            jac[:, j] = (axis_angle_log(out0.inverse().compose(op))
                         - axis_angle_log(out0.inverse().compose(om))) / (2 * h)
        det = np.linalg.det(jac)
        assert abs(det - np.exp(ld)) / np.exp(ld) < 1e-4


def test_logdet_tape_gradients(rng):
    held, moving = _orthonormal_pair(rng)
    ox = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    oy = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    oz = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    raw_w = ag.leaf(rng.normal(size=(1, 6)))

    def f():
        cx, cy, cz = fl._constrain_omega_batch(ag.concat([ox, oy, oz], axis=1), 6)
        w = ag.softmax(raw_w)
        _, logdet = fl._mobius_fwd_batch(held[None, :], moving[None, :],
                                         cx, cy, cz, w)
        return ag.reduce_sum(logdet)

    assert ag.finite_diff_check(f, [ox, oy, oz, raw_w]) < 1e-5


def test_flow_identity_init_equals_base(rng):
    cfg = fl.FlowConfig(n_joints=2, context_dim=4, shape_dim=2,
                        k_transforms=8, n_sets=2, channels=16, blocks=1)
    model = fl.FlowModel(cfg, rng)
    ctx = rng.normal(size=4)
    rots = [dist.uniform_sample(rng) for _ in range(2)]
    lp = model.flow_log_prob(rots, ctx)
    base = sum(dist.pig_logpdf_batch(model.base, r.q) for r in rots)
    assert abs(lp - base) < 1e-9


def test_flow_sample_logprob_consistent(rng):
    model = _perturbed_model(rng, n_joints=2)
    ctx = rng.normal(size=3)
    for i, s in enumerate(model.flow_sample(ctx, 5, rng)):
        lp = model.flow_log_prob(s.joint_rotations, ctx)
        assert abs(lp - s.log_prob) < 1e-6


def _roundtrip_rows(seed, omega_scale, n=10_000, k=16):
    """n random Möbius-step inputs (u1, u2, ox, oy, oz, w)."""
    rng = np.random.default_rng(seed)
    u1, u2 = _orthonormal_pairs(rng, n)
    raw = rng.normal(scale=omega_scale, size=(3, n, k))
    ox, oy, oz = (np.asarray(ag.as_array(o))
                  for o in fl._constrain_omega_batch(np.concatenate(raw, axis=1), k))
    return u1, u2, ox, oy, oz, rng.dirichlet(np.ones(k), size=n)


def _coinciding(rows):
    """Möbius-step inputs with every component's omega set to component 0's,
    which makes the step one Möbius map whatever its weights."""
    u1, u2, ox, oy, oz, w = rows
    return (u1, u2, *(np.repeat(o[:, :1], o.shape[1], axis=1) for o in (ox, oy, oz)), w)


def _inverse_roundtrip(seed, omega_scale):
    """Forward Möbius steps of random rows, their inverse, and the
    forward angular roundtrip error and iterations of that inverse."""
    u1, u2, ox, oy, oz, w = _roundtrip_rows(seed, omega_scale)
    moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
    rec, iters, _ = fl._mobius_inv_batch(moved, u1, ox, oy, oz, w)
    again, _ = fl._mobius_fwd_batch(u1, rec, ox, oy, oz, w)
    ang = np.arccos(np.clip(np.sum(again * moved, axis=1), -1.0, 1.0))
    return ang, iters


def test_newton_inverse_on_trained_scale_conditioners():
    # raw omegas at the scale a trained conditioner produces, as in
    # acceptance criterion 1
    ang, iters = _inverse_roundtrip(0, 0.3)
    assert ang.max() <= 1e-6
    assert iters.max() <= 5 and iters.mean() <= 3.39


def test_newton_inverse_converges_on_steep_conditioners():
    # raw omegas N(0, 2^2) push |omega| toward the unit circle, where the
    # slope of the coupling varies sharply; every row must still converge
    # (NonConvergenceError otherwise) to the same tolerance
    ang, iters = _inverse_roundtrip(1, 2.0)
    assert ang.max() <= 1e-6
    assert iters.max() < fl.INVERSE_MAX_ITER


@pytest.mark.parametrize("omega_scale", [0.3, 2.0])
def test_inverse_of_coinciding_components_starts_at_the_root(omega_scale):
    # one Möbius map's inverse has the closed-form root 2 arg(1 - c0), where
    # the iteration starts, so every row meets the tolerance at the first check
    u1, u2, ox, oy, oz, w = _coinciding(_roundtrip_rows(2, omega_scale))
    moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
    rec, iters, log_slope = fl._mobius_inv_batch(moved, u1, ox, oy, oz, w)
    again, logdet = fl._mobius_fwd_batch(u1, rec, ox, oy, oz, w)
    ang = np.arctan2(np.linalg.norm(np.cross(again, moved), axis=1),
                     np.sum(again * moved, axis=1))
    assert (iters == 1).all()
    assert ang.max() <= 1e-12
    np.testing.assert_allclose(log_slope, logdet, rtol=0, atol=1e-12)


def _batch_with_a_nan_omega(n=1000):
    """Inverse arguments of n forward-stepped rows, row 17 with a NaN omega."""
    u1, u2, ox, oy, oz, w = _roundtrip_rows(4, 0.3, n=n)
    moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
    ox = ox.copy()
    ox[17, 3] = np.nan
    return moved, u1, ox, oy, oz, w


def test_inverse_names_the_rows_that_miss_tolerance():
    # a NaN row never meets |h| < INVERSE_EPS: the error counts the rows that
    # missed, of all rows, and those of them with a non-finite input
    with pytest.raises(fl.NonConvergenceError,
                       match=r"\b1 of 1000 rows missed tolerance, 1 of them with a non-finite"):
        fl._mobius_inv_batch(*_batch_with_a_nan_omega())


def _criterion_1_rows(n=10_000, k=16):
    """The rows of acceptance criterion 1, drawn as it draws them."""
    rng = np.random.default_rng(0)
    u1 = rng.normal(size=(n, 3))
    u1 /= np.linalg.norm(u1, axis=1, keepdims=True)
    t = rng.normal(size=(n, 3))
    u2 = t - np.sum(t * u1, axis=1, keepdims=True) * u1
    u2 /= np.linalg.norm(u2, axis=1, keepdims=True)
    raw = rng.normal(scale=0.3, size=(3, n, k))
    ox, oy, oz = (np.asarray(ag.as_array(o))
                  for o in fl._constrain_omega_batch(np.concatenate(raw, axis=1), k))
    w = np.exp(rng.normal(size=(n, k)))
    return u1, u2, ox, oy, oz, w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("rows", [_criterion_1_rows, lambda: _roundtrip_rows(1, 2.0)],
                         ids=["criterion-1", "steep"])
def test_inverse_log_slope_is_forward_logdet(rows):
    # the Newton slope kept at each root is the forward Jacobian factor
    # of the step at the point the inverse returns
    u1, u2, ox, oy, oz, w = rows()
    moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
    rec, _, log_slope = fl._mobius_inv_batch(moved, u1, ox, oy, oz, w)
    _, logdet = fl._mobius_fwd_batch(u1, rec, ox, oy, oz, w)
    np.testing.assert_allclose(log_slope, logdet, rtol=0, atol=1e-12)


def _mixed_rows():
    """Steep rows of distinct components interleaved with rows of coinciding ones."""
    rows = zip(_roundtrip_rows(1, 2.0, n=200), _coinciding(_roundtrip_rows(3, 2.0, n=100)))
    order = np.random.default_rng(5).permutation(300)
    return [np.concatenate(pair)[order] for pair in rows]


def test_inverse_batch_matches_rows_solved_alone():
    # rows leave the working set as they converge, and the whole set stops at
    # once when all remaining rows converge together (always, for one row);
    # each row's result must not depend on the others in its batch
    for u1, u2, ox, oy, oz, w in (_roundtrip_rows(1, 2.0, n=300), _mixed_rows()):
        moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
        rec, iters, log_slope = fl._mobius_inv_batch(moved, u1, ox, oy, oz, w)
        assert len(set(iters.tolist())) > 2
        for i in range(len(moved)):
            one = slice(i, i + 1)
            r, it, ls = fl._mobius_inv_batch(moved[one], u1[one], ox[one], oy[one], oz[one],
                                             w[one])
            np.testing.assert_array_equal(r, rec[one])
            np.testing.assert_array_equal(it, iters[one])
            np.testing.assert_array_equal(ls, log_slope[one])


def test_flow_sample_makes_one_pass(rng, monkeypatch):
    model = _perturbed_model(rng, n_joints=2)

    def second_pass(*args, **kwargs):
        raise AssertionError("flow_sample ran log_prob_rows")

    monkeypatch.setattr(fl.FlowModel, "log_prob_rows", second_pass)
    batch = model.flow_sample(rng.normal(size=3), 5, rng, include_mode=True)
    assert np.isfinite(batch.log_probs).all()


def test_flow_sample_logprob_matches_on_trained_fixture(trained_model):
    # mode + 100 draws per scene of the criterion-8 fixture
    _, dataset, flow, encode = trained_model
    worst = 0.0
    for j, rec in enumerate(dataset):
        ctx = encode(rec.context_features)
        batch = flow.flow_sample(ctx, 100, np.random.default_rng(j), include_mode=True)
        ref = [flow.flow_log_prob(r, ctx) for r in batch.rotations]
        worst = max(worst, np.abs(batch.log_probs - ref).max())
    assert worst <= 1e-6


def test_flow_sample_logprob_matches_on_toy_fit():
    # a short criterion-4 fit. The sampled log-density sums each coupling's
    # slope at a root found to |h| < INVERSE_EPS, so its error is about
    # INVERSE_EPS times a sharp coupling's slope; 1e-4 nats leaves room for
    # the sharper couplings of longer fits
    from flowpose import training
    rng = np.random.default_rng(12)
    targets = [dist.uniform_sample(rng) for _ in range(4)]
    flow, _ = training.fit_toy_distribution(targets, steps=75, batch=128, seed=12,
                                            report_samples=16)
    ctx = np.zeros(flow.cfg.context_dim)
    batch = flow.flow_sample(ctx, 200, rng, include_mode=True)
    ref = [flow.flow_log_prob(r, ctx) for r in batch.rotations]
    assert np.abs(batch.log_probs - ref).max() <= 1e-4


def test_flow_sample_empty_and_invalid_n(rng):
    model = _perturbed_model(rng, n_joints=3)
    ctx = rng.normal(size=3)
    batch = model.flow_sample(ctx, 0, rng)
    assert batch.rotations.shape == (0, 3, 3, 3)
    assert batch.shapes.shape == (0, 1) and batch.log_probs.shape == (0,)
    for n in (-1, 2.5, True, np.True_):
        with pytest.raises(ValueError, match=r"\bn\b"):
            model.flow_sample(ctx, n, rng)


def test_pose_batch_items_are_pose_samples(rng):
    model = _perturbed_model(rng, n_joints=3)
    ctx = rng.normal(size=3)
    batch = model.flow_sample(ctx, 6, rng, include_mode=True)
    assert isinstance(batch, fl.PoseBatch)
    assert batch.rotations.shape == (7, 3, 3, 3)
    assert batch.shapes.shape == (7, 1) and batch.log_probs.shape == (7,)
    expect = [([matrix_to_quat(m) for m in batch.rotations[i]], batch.shapes[i],
               float(batch.log_probs[i])) for i in range(len(batch))]

    def same(sample, want):
        rots, shape, log_prob = want
        return (isinstance(sample, fl.PoseSample) and sample.joint_rotations == rots
                and np.array_equal(sample.shape, shape) and sample.log_prob == log_prob)

    assert len(batch) == 7
    assert len(list(batch)) == 7 and all(map(same, batch, expect))
    with pytest.raises(ValueError):
        batch.rotations[0, 0] = np.eye(3)


def test_pose_batch_quaternions_are_one_read_only_buffer(rng):
    model = _perturbed_model(rng, n_joints=3)
    batch = model.flow_sample(rng.normal(size=3), 4, rng, include_mode=True)
    quats = np.array([[r.q for r in d.joint_rotations] for d in batch])
    np.testing.assert_array_equal(quats.reshape(-1, 4),
                                  matrix_to_quats(batch.rotations.reshape(-1, 3, 3)))
    # a write to a yielded quaternion raises and leaves the rotation as it was
    draw = list(batch)[1]
    with pytest.raises(ValueError):
        draw.joint_rotations[2].q[0] = 0.0
    np.testing.assert_array_equal(draw.joint_rotations[2].q, quats[1, 2])


def test_flow_samples_depend_on_context(rng):
    model = _perturbed_model(rng, scale=0.5)
    r = dist.uniform_sample(rng)
    lp1 = model.flow_log_prob([r], np.array([1.0, 0.0, 0.0]))
    lp2 = model.flow_log_prob([r], np.array([-1.0, 2.0, 0.5]))
    assert abs(lp1 - lp2) > 1e-6


def test_mode_sample_is_first_and_most_likely(rng):
    model = _perturbed_model(rng)
    ctx = rng.normal(size=3)
    samples = model.flow_sample(ctx, 20, rng, include_mode=True)
    mode = model.mode_sample(ctx)
    first = next(iter(samples))
    assert geodesic_distance(first.joint_rotations[0], mode.joint_rotations[0]) < 1e-12
    # the base mode maps to the highest-density region: beat most draws
    others = samples.log_probs[1:]
    assert first.log_prob >= np.median(others)


def test_context_rows_repeat_mod_p(rng):
    # pose row r reads context row r mod P: the P joint rows of one context
    # and the same rows repeated once per draw give equal log-probs, up to
    # the last bits BLAS changes when the rotation conditioners run on 12
    # rows instead of 3
    model = _perturbed_model(rng, n_joints=3)
    for k, node in zip(model.params.names(), model.params.leaves()):
        if k.startswith("rot"):
            node.value = node.value + 0.3 * rng.normal(size=node.value.shape)
    pv = model.param_values()
    ctx = rng.normal(size=3)
    u1, u2 = fl._pose_cols([Rotation(q) for q in dist.uniform_quaternions(12, rng)])
    rows = fl.joint_context_rows(model, pv, ctx[None])
    np.testing.assert_allclose(
        model.log_prob_rows(pv, u1, u2, rows),
        model.log_prob_rows(pv, u1, u2, np.tile(rows, (4, 1))), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_ctx, reps", [(1, 4), (4, 1)])
def test_log_prob_rows_with_the_step_qs_matches_without(rng, n_ctx, reps):
    # the rotation layers' Qs of the conditioner rows, computed by the caller,
    # give the log-probs of the call that computes them itself; so do the
    # leaves' gradients, except that with a gathered context (P < N) the
    # rows' gradient arrives along two paths and may sum in another order
    model = _perturbed_model(rng, n_joints=3)
    leaves = model.params.leaves()
    p = dict(zip(model.params.names(), leaves))
    ctx = ag.leaf(rng.normal(size=(n_ctx, 3)))
    m = quat_to_matrices(dist.uniform_quaternions(3 * n_ctx * reps, rng))
    w = rng.uniform(0.5, 1.5, size=len(m))
    results = []
    for supply in (False, True):
        for leaf in leaves + [ctx]:
            leaf.grad = None
        rows = fl.joint_context_rows(model, p, ctx)
        qs = model.rotation_qs(p, rows) if supply else None
        lp = model.log_prob_rows(p, m[:, :, 0], m[:, :, 1], rows, qs)
        ag.backward(ag.reduce_sum(lp * w))
        results.append((ag.as_array(lp), [leaf.grad for leaf in leaves + [ctx]]))
    (lp, grads), (ref_lp, ref_grads) = results
    np.testing.assert_array_equal(lp, ref_lp)
    assert sum(g is not None for g in ref_grads) > 2
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if ref is None:
            continue
        if reps == 1:
            np.testing.assert_array_equal(g, ref)
        else:
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-14 * max(1.0, np.abs(ref).max()))


def test_mode_rotations_with_the_step_qs_match_without(rng):
    model = _perturbed_model(rng, n_joints=3)
    for k, node in zip(model.params.names(), model.params.leaves()):
        if k.startswith("rot"):
            node.value = node.value + 0.3 * rng.normal(size=node.value.shape)
    pv = model.param_values()
    rows = fl.joint_context_rows(model, pv, rng.normal(size=(4, 3)))
    qs = model.rotation_qs(pv, rows)
    assert len(qs) == model.cfg.n_sets
    np.testing.assert_array_equal(model.mode_rotations(pv, rows, qs),
                                  model.mode_rotations(pv, rows))


def test_rotation_layer_is_rotation(rng):
    # the conditioner's Q is in SO(3): Q r is a rotation, and the rigid
    # layer does not change volume
    model = _perturbed_model(rng)
    pv = model.param_values()
    rows = fl.joint_context_rows(model, pv, rng.normal(size=(1, 3)))
    q = model._rotation_q(pv, 0, rows)[0].reshape(3, 3)
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(q) - 1.0) < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_coupling_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    model = _perturbed_model(rng)
    r = dist.uniform_sample(rng)
    ctx = rng.normal(size=3)
    out, _ = model.coupling_block(r, ctx)
    rec = model.coupling_block_inverse(out, ctx)
    assert geodesic_distance(rec, r) < 5e-4


@given(ctx=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf]),
                    min_size=2, max_size=4), n=st.integers(0, 8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_flow_entry_points_name_a_bad_context_or_return_finite_values(ctx, n):
    model = _perturbed_model(np.random.default_rng(0), n_joints=2)
    rng = np.random.default_rng(n)
    pose = [dist.uniform_sample(rng) for _ in range(2)]
    if len(ctx) != 3 or not np.isfinite(ctx).all():
        with pytest.raises(ValueError, match="context"):
            model.flow_sample(ctx, n, rng, include_mode=True)
        with pytest.raises(ValueError, match="context"):
            model.flow_log_prob(pose, ctx)
        return
    batch = model.flow_sample(ctx, n, rng, include_mode=True)
    assert batch.rotations.shape == (n + 1, 2, 3, 3) and batch.shapes.shape == (n + 1, 1)
    assert np.isfinite(batch.log_probs).all() and np.isfinite(batch.shapes).all()
    assert np.isfinite(model.flow_log_prob(pose, ctx))


def _orthonormal_pairs(rng, n):
    pairs = [_orthonormal_pair(rng) for _ in range(n)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def test_mobius_node_grads(rng):
    held, moving = (ag.leaf(v) for v in _orthonormal_pairs(rng, 4))
    omegas = [ag.leaf(0.3 * rng.normal(size=(4, 6))) for _ in range(3)]
    w = ag.leaf(rng.dirichlet(np.ones(6), size=4))
    wm, wl = rng.normal(size=(4, 3)), rng.normal(size=4)

    def f():
        moved, logdet = fl._mobius_fwd_batch(held, moving, *omegas, w)
        return ag.reduce_sum(moved * wm) + ag.reduce_sum(logdet * wl)

    moved, logdet = fl._mobius_fwd_batch(held, moving, *omegas, w)
    assert moved.parents == logdet.parents          # one kernel node
    assert ag.finite_diff_check(f, [held, moving, *omegas, w]) < 1e-6


def test_constrain_omega_node_grads(rng):
    raw = [ag.leaf(rng.normal(scale=0.8, size=(3, 5))) for _ in range(3)]
    ws = rng.normal(size=(3, 3, 5))
    ref = np.array([constrain_omega(v) for v in
                    np.stack([r.value for r in raw], axis=-1).reshape(-1, 3)])
    got = np.stack([ag.as_array(c) for c in fl._constrain_omega_batch(ag.concat(raw, axis=1), 5)],
                   axis=-1)
    np.testing.assert_allclose(got.reshape(-1, 3), ref, atol=1e-15)
    assert ag.finite_diff_check(
        lambda: sum(ag.reduce_sum(c * wi) for c, wi in
                    zip(fl._constrain_omega_batch(ag.concat(raw, axis=1), 5), ws)), raw) < 1e-6


@pytest.mark.parametrize("rows, transpose", [(5, False), (5, True), (1, True)])
def test_rotation_apply_node_grads(rng, rows, transpose):
    q9 = ag.leaf(rng.normal(size=(rows, 9)))
    u = ag.leaf(rng.normal(size=(5, 3)))
    w = rng.normal(size=(5, 3))
    q = np.broadcast_to(q9.value.reshape(-1, 3, 3), (5, 3, 3))
    expect = np.einsum("bji,bj->bi" if transpose else "bij,bj->bi", q, u.value)
    np.testing.assert_allclose(fl.FlowModel._apply_q(q9.value, u.value, transpose),
                               expect, atol=1e-14)
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(fl.FlowModel._apply_q(q9, u, transpose) * w),
        [q9, u]) < 1e-6


def test_toy_fit_step_tape_size():
    # one criterion-4 toy-fit step (default toy FlowConfig, batch 128):
    # one node per flow kernel keeps the tape small
    from flowpose import training
    rng = np.random.default_rng(0)
    cfg = fl.FlowConfig(n_joints=1, context_dim=1, shape_dim=1, k_transforms=16,
                        n_sets=4, channels=64, blocks=2, embed_dim=4, kappa=1.0)
    model = fl.FlowModel(cfg, rng)
    p = dict(zip(model.params.names(), model.params.leaves()))
    m = quat_to_matrices(dist.uniform_quaternions(128, rng))
    rows = training.joint_context_rows(model, p, np.zeros((1, 1)))
    loss = -ag.mean(model.log_prob_rows(p, m[:, :, 0], m[:, :, 1], rows))
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    assert len(seen) <= 400


def test_joint_context_rows_layout_and_grads(rng):
    model = _perturbed_model(rng, n_joints=3)
    p = dict(zip(model.params.names(), model.params.leaves()))
    ctx = ag.leaf(rng.normal(size=(2, 3)))
    rows = fl.joint_context_rows(model, p, ctx)
    emb = p["embed"].value
    np.testing.assert_array_equal(
        ag.as_array(rows)[4], np.concatenate([ctx.value[1], emb[1]]))
    w = rng.normal(size=rows.shape)
    assert ag.finite_diff_check(
        lambda: ag.reduce_sum(fl.joint_context_rows(model, p, ctx) * w),
        [ctx, p["embed"]]) < 1e-6


@pytest.mark.parametrize("ctx", [[0.1, np.nan, 0.3], [0.1, 0.2], [0.1, 0.2, 0.3, 0.4]])
def test_coupling_blocks_name_a_bad_context(ctx):
    model = _perturbed_model(np.random.default_rng(0))
    r = dist.uniform_sample(np.random.default_rng(1))
    msg = "must be finite" if len(ctx) == 3 else r"must be numbers of shape \(3,\)"
    with pytest.raises(ValueError, match=f"^context {msg}"):
        model.coupling_block(r, ctx)
    with pytest.raises(ValueError, match=f"^context {msg}"):
        model.coupling_block_inverse(r, ctx)
