"""Linearized pose/shape/translation solver on synthetic observations."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpose import autodiff as ag
from flowpose import body, solver, synth
from flowpose.rotation import (Rotation, as_matrices, axis_angle_exp, exp_matrices,
                               geodesic_distance)

K_MAT = np.array([[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])


def _exact_obs(model, pose, beta, t, k_mat=K_MAT, extr_r=None, extr_t=None):
    n = len(model.anchor_indices)
    obs = solver.Observation(np.zeros((n, 2)), np.ones(n), np.ones(n), k_mat,
                             np.eye(3) if extr_r is None else extr_r,
                             np.zeros(3) if extr_t is None else extr_t)
    world = solver._world_rotations(model, as_matrices(pose))
    return dataclasses.replace(obs, anchors_2d=solver.reproject(model, world, beta, t, obs))


def _random_scene(model, rng, pose_scale=0.3):
    pose = [axis_angle_exp(rng.normal(scale=pose_scale, size=3))
            for _ in range(model.n_joints)]
    beta = rng.normal(scale=0.5, size=model.n_shape)
    t = np.array([0.0, 0.0, 3.0]) + rng.uniform(-0.2, 0.2, 3)
    return pose, beta, t


def test_exact_recovery_from_gt_init(toy_model, rng):
    for _ in range(10):
        pose, beta, t = _random_scene(toy_model, rng)
        obs = _exact_obs(toy_model, pose, beta, t)
        res = solver.solve_single_view(toy_model, pose, obs,
                                       solver.SolveConfig())
        assert np.linalg.norm(res.translation - t) < 1e-6
        assert np.abs(res.beta - beta).max() < 1e-4
        assert res.weighted_rms_residual < 1e-8


def test_recovery_from_perturbed_init(toy_model, rng):
    cfg = solver.SolveConfig(max_relinearizations=2)
    for _ in range(5):
        pose, beta, t = _random_scene(toy_model, rng)
        obs = _exact_obs(toy_model, pose, beta, t)
        init = [p.compose(axis_angle_exp(
            np.radians(10.0) * _unit(rng))) for p in pose]
        res = solver.solve_single_view(toy_model, init, obs, cfg)
        assert res.weighted_rms_residual < 1.0


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_pose_correction_applied(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    init = [p.compose(axis_angle_exp(np.radians(5.0) * _unit(rng)))
            for p in pose]
    res = solver.solve_single_view(toy_model, init, obs,
                                   solver.SolveConfig(max_relinearizations=3))
    from flowpose.rotation import matrix_to_quat
    gt_world = solver._world_rotations(toy_model, as_matrices(pose))
    for j in range(toy_model.n_joints):
        assert geodesic_distance(matrix_to_quat(res.rotations[j]),
                                 matrix_to_quat(gt_world[j])) < 0.05


def test_relative_from_world_inverts_world_rotations(toy_model, rng):
    for _ in range(5):
        rel = as_matrices(_random_scene(toy_model, rng, pose_scale=1.0)[0])
        world = solver._world_rotations(toy_model, rel)
        np.testing.assert_allclose(solver._relative_from_world(toy_model, world), rel,
                                   rtol=0, atol=1e-14)


def _perturbed_solve_inputs(model, rng):
    pose, beta, t = _random_scene(model, rng)
    obs = _exact_obs(model, pose, beta, t)
    init = [p.compose(axis_angle_exp(np.radians(5.0) * _unit(rng))) for p in pose]
    return init, obs, solver.SolveConfig(gamma=1e-4, max_relinearizations=2)


def test_solve_from_rotations_equals_solve_from_matrices(toy_model, rng):
    init, obs, cfg = _perturbed_solve_inputs(toy_model, rng)
    a = solver.solve_single_view(toy_model, init, obs, cfg)
    b = solver.solve_single_view(toy_model, as_matrices(init), obs, cfg)
    assert a.n_relinearizations == b.n_relinearizations == 2
    assert a.pose.shape == a.rotations.shape == (toy_model.n_joints, 3, 3)
    for field in ("delta_vectors", "rotations", "pose", "beta", "translation",
                  "weighted_rms_residual", "per_anchor_residuals"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_solve_builds_no_rotation(toy_model, rng, monkeypatch):
    init, obs, cfg = _perturbed_solve_inputs(toy_model, rng)
    mats = as_matrices(init)
    built, real_init = [], Rotation.__init__

    def counting_init(self, q):
        built.append(q)
        real_init(self, q)

    monkeypatch.setattr(Rotation, "__init__", counting_init)
    for pose in (mats, init):
        res = solver.solve_single_view(toy_model, pose, obs, cfg)
        assert res.n_relinearizations == 2
    solver.solve_multi_view(toy_model, [mats, init], [obs, obs], cfg)
    assert built == []


@pytest.mark.parametrize("extra", [-1, 1])
def test_solve_rejects_a_pose_with_the_wrong_joint_count(toy_model, rng, extra):
    init, obs, cfg = _perturbed_solve_inputs(toy_model, rng)
    k = toy_model.n_joints
    pose = (init + init)[:k + extra]
    msg = f" must be numbers of shape ({k}, 3, 3), got shape ({k + extra}, 3, 3)"
    with pytest.raises(ValueError, match=re.escape("pose_init" + msg)):
        solver.solve_single_view(toy_model, pose, obs, cfg)
    with pytest.raises(ValueError, match=re.escape("per_view_poses" + msg)):
        solver.solve_multi_view(toy_model, [init, as_matrices(pose)], [obs, obs], cfg)


def _affine_anchors(model, world, beta_lin):
    """(p0 (A,3), d_delta (A,K,3,3), d_beta (A,S,3)) so that the anchors read
        P = p0 + sum_k d_delta[:,k] @ delta_k + d_beta . (beta - beta_lin) + t
    to first order, from the solver's posed table (1+S,A,3) and joint shares
    y_k: p0 and d_beta are the table's rows, d_delta[:,k] delta = delta x y_k.
    Returns them with the table."""
    table = body.pose_anchors(model, world, np.eye(model.n_shape + 1))
    y = np.swapaxes(solver._linearized_anchors(model, world, beta_lin), 0, 1)    # (A,K,3)
    d_delta = -np.swapaxes(np.cross(y[..., None, :], np.eye(3)), -1, -2)
    p0 = np.tensordot(np.concatenate([[1.0], beta_lin]), table, axes=1)
    return (p0, d_delta, np.swapaxes(table[1:], 0, 1)), table


def test_linearized_anchors_match_finite_differences(toy_model, rng):
    """Anchors are linear in beta, so d_beta is exact; d_delta holds to
    first order when one joint's world rotation is corrected by exp(eps e_i)."""
    pose, beta, _ = _random_scene(toy_model, rng)
    world = solver._world_rotations(toy_model, as_matrices(pose))

    def anchors(world_rot, b):
        state = body.BodyState(solver._relative_from_world(toy_model, world_rot), b,
                               np.zeros(3))
        return body.forward_kinematics(toy_model, state)[0][toy_model.anchor_indices]

    (p0, d_delta, d_beta), _ = _affine_anchors(toy_model, world, beta)
    np.testing.assert_allclose(p0, anchors(world, beta), rtol=0, atol=1e-12)
    for s in range(toy_model.n_shape):
        step = 0.7 * np.eye(toy_model.n_shape)[s]
        np.testing.assert_allclose(anchors(world, beta + step) - p0, 0.7 * d_beta[:, s],
                                   rtol=0, atol=1e-12)
    eps = 1e-5
    for k in range(toy_model.n_joints):
        for i in range(3):
            moved = []
            for sign in (1.0, -1.0):
                w = world.copy()
                w[k] = axis_angle_exp(sign * eps * np.eye(3)[i]).matrix() @ world[k]
                moved.append(anchors(w, beta))
            np.testing.assert_allclose((moved[0] - moved[1]) / (2 * eps),
                                       d_delta[:, k, :, i], rtol=0, atol=1e-8)


def _dlt_rows_reference(obs, p0, d_delta, d_beta, beta_lin, weights):
    # one anchor, one image row and one joint at a time
    n_a, k = d_delta.shape[:2]
    s = d_beta.shape[1]
    dim = 3 * k + s + 3
    kk, re, te = obs.intrinsics, obs.extrinsics_r, obs.extrinsics_t
    q0 = p0 @ re.T + te
    qd = np.einsum("ij,akjl->akil", re, d_delta)
    qb = d_beta @ re.T
    jrows = np.zeros((2 * n_a, dim))
    rrows = np.zeros(2 * n_a)
    for a in range(n_a):
        u, v = obs.anchors_2d[a]
        for c, row in enumerate((u * kk[2] - kk[0], v * kk[2] - kk[1])):
            m, const = row[:3], row[3]
            jr_ = np.zeros(dim)
            for j in range(k):
                jr_[3 * j:3 * j + 3] = m @ qd[a, j]
            jr_[3 * k:3 * k + s] = m @ qb[a].T
            jr_[3 * k + s:] = m @ re
            rhs = -(m @ q0[a] + const) + jr_[3 * k:3 * k + s] @ beta_lin
            jrows[2 * a + c] = weights[a] * jr_
            rrows[2 * a + c] = weights[a] * rhs
    return jrows, rrows


def test_dlt_rows_match_per_anchor_reference(toy_model, rng):
    n = len(toy_model.anchor_indices)
    for _ in range(5):
        pose, beta, _ = _random_scene(toy_model, rng)
        world = solver._world_rotations(toy_model, as_matrices(pose))
        lin, table = _affine_anchors(toy_model, world, beta)
        aux = rng.uniform(0.1, 2.0, n)
        aux[rng.choice(n, n // 4, replace=False)] = 0.0
        obs = solver.Observation(
            rng.uniform(0.0, 640.0, (n, 2)), rng.uniform(0.5, 3.0, n), aux,
            np.array([[810.0, 0, 330, 0], [0, 790.0, 250, 0], [0, 0, 1, 0]]),
            axis_angle_exp(rng.normal(size=3)).matrix(), rng.normal(size=3))
        wts = solver.anchor_weights(obs.laplace_scale, obs.aux_weight)
        rows = solver._dlt_constants(toy_model, [obs])
        got = solver._dlt_rows(toy_model, world, beta, table, rows)
        want = _dlt_rows_reference(obs, *lin, beta, wts)
        # rows of a zero-weight anchor are zero in the reference and dropped here
        keep = np.repeat(wts > 0, 2)
        assert not want[0][~keep].any()
        for g, w in zip(got, want):
            assert g.shape == w[keep].shape
            assert np.abs(g - w[keep]).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("field, bad", [
    ("anchors_2d", np.zeros((5, 3))), ("anchors_2d", np.zeros(())), ("laplace_scale", np.ones(1)),
    ("aux_weight", np.ones((5, 1))), ("extrinsics_r", np.eye(4)),
    ("extrinsics_t", np.zeros((3, 1)))])
def test_observation_checks_shapes(field, bad):
    args = {"anchors_2d": np.zeros((5, 2)), "laplace_scale": np.ones(5),
            "aux_weight": np.ones(5), "intrinsics": K_MAT}
    args[field] = bad
    with pytest.raises(ValueError, match=field):
        solver.Observation(**args)


@pytest.mark.parametrize("field, index, bad", [
    ("anchors_2d", (1, 0), np.nan), ("laplace_scale", 2, np.nan), ("aux_weight", 0, np.inf),
    ("intrinsics", (0, 0), np.inf), ("extrinsics_r", (1, 1), np.nan),
    ("extrinsics_t", 2, -np.inf)])
def test_observation_rejects_non_finite_values(field, index, bad):
    args = {"anchors_2d": np.zeros((5, 2)), "laplace_scale": np.ones(5),
            "aux_weight": np.ones(5), "intrinsics": K_MAT.copy(),
            "extrinsics_r": np.eye(3), "extrinsics_t": np.zeros(3)}
    args[field][index] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        solver.Observation(**args)


def test_assemble_rejects_anchor_count_mismatch(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    n = len(toy_model.anchor_indices) - 1
    obs = solver.Observation(np.zeros((n, 2)), np.ones(n), np.ones(n), K_MAT)
    msg = f"a view has {n} anchors, the model {n + 1}"
    with pytest.raises(ValueError, match=msg):
        solver._dlt_constants(toy_model, [obs])
    with pytest.raises(ValueError, match=msg):
        solver.solve(toy_model, pose, [obs], solver.SolveConfig())


def _stacked_normal_equations(model, world, beta_lin, observations, cfg):
    """J^T J and J^T r of the whole stacked system: every view's data rows,
    then sqrt-weighted identity rows for the beta prior and the delta damping."""
    k, s = model.n_joints, model.n_shape
    dim = 3 * k + s + 3
    lin, _ = _affine_anchors(model, world, beta_lin)
    rows = [_dlt_rows_reference(o, *lin, beta_lin,
                                solver.anchor_weights(o.laplace_scale, o.aux_weight))
            for o in observations]
    jmat = [j for j, _ in rows]
    rvec = [r for _, r in rows]
    prior = np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior
    jb = np.zeros((s, dim))
    jb[:, 3 * k:3 * k + s] = np.sqrt(cfg.omega_beta) * np.eye(s)
    jg = np.zeros((3 * k, dim))
    jg[:, :3 * k] = np.sqrt(cfg.gamma) * np.eye(3 * k)
    jmat = np.vstack(jmat + [jb, jg])
    rvec = np.concatenate(rvec + [np.sqrt(cfg.omega_beta) * prior, np.zeros(3 * k)])
    return jmat.T @ jmat, jmat.T @ rvec


@pytest.mark.parametrize("omega_beta, gamma, with_prior", [
    (0.0, 0.0, False), (0.3, 0.0, True), (0.0, 0.05, False), (0.3, 0.05, False),
    (1e3, 1e-4, True)])
def test_assemble_adds_regularizers_to_the_normal_equations(toy_model, rng, omega_beta,
                                                            gamma, with_prior):
    pose, beta, t = _random_scene(toy_model, rng)
    world = solver._world_rotations(toy_model, as_matrices(pose))
    views = [_exact_obs(toy_model, pose, beta, t),
             _exact_obs(toy_model, pose, beta, t,
                        extr_r=axis_angle_exp(rng.normal(scale=0.3, size=3)).matrix(),
                        extr_t=rng.normal(scale=0.1, size=3))]
    aux = np.ones(len(toy_model.anchor_indices))
    aux[::5] = 0.0
    views[1] = dataclasses.replace(views[1], aux_weight=aux)
    cfg = solver.SolveConfig(omega_beta=omega_beta, gamma=gamma,
                             beta_prior=rng.normal(size=toy_model.n_shape) if with_prior else None)
    beta_lin = beta + rng.normal(scale=0.1, size=beta.shape)
    table = body.pose_anchors(toy_model, world, np.eye(toy_model.n_shape + 1))
    got = solver.assemble_system(toy_model, world, beta_lin, table,
                                 solver._dlt_constants(toy_model, views), cfg)
    want = _stacked_normal_equations(toy_model, world, beta_lin, views, cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _parent_dlt_constants(model, observations):
    """`_dlt_constants` as one loop over the views, built afresh on each call:
    the reference the kept per-view rows must equal to the bit."""
    anchor, m, const, weights = [], [], [], []
    for obs in observations:
        wts = solver.anchor_weights(obs.laplace_scale, obs.aux_weight)
        keep = np.flatnonzero(wts > 0)
        kk = obs.intrinsics
        rows = wts[keep, None, None] * (obs.anchors_2d[keep, :, None] * kk[2] - kk[:2])
        anchor.append(np.repeat(keep, 2))
        m.append((rows[..., :3] @ obs.extrinsics_r).reshape(-1, 3))
        const.append((rows[..., :3] @ obs.extrinsics_t + rows[..., 3]).reshape(-1))
        weights.append(wts)
    m = np.concatenate(m)
    m_cross = np.zeros((len(m), 3, 3))
    m_cross[:, [2, 0, 1], [1, 2, 0]] = m
    m_cross[:, [1, 2, 0], [2, 0, 1]] = -m
    return solver._ViewRows(np.concatenate(anchor), m, m_cross, np.concatenate(const), weights,
                            sum(float(w.sum()) for w in weights))


def _parent_assemble_system(model, world, beta_lin, table, rows, cfg):
    """`assemble_system` adding the regularizers through `a.flat`."""
    k, s = model.n_joints, model.n_shape
    reg = np.concatenate([np.full(3 * k, cfg.gamma), np.full(s, cfg.omega_beta), np.zeros(3)])
    reg_b = np.zeros(3 * k + s + 3)
    if cfg.beta_prior is not None:
        reg_b[3 * k:3 * k + s] = cfg.omega_beta * cfg.beta_prior
    jmat, r = solver._dlt_rows(model, world, beta_lin, table, rows)
    a = jmat.T @ jmat
    a.flat[::len(a) + 1] += reg
    return a, jmat.T @ r + reg_b


def _parent_residual_report(table, beta, t, observations, rows):
    """`_residual_report` through `np.linalg.norm`, translating per view and
    concatenating even one view's residuals.  One view's rows hold its
    weights as one array."""
    pts = (np.concatenate([[1.0], beta])[None] @ table.reshape(len(table), -1)).reshape(-1, 3)
    per = [np.linalg.norm(solver.project(obs.intrinsics, obs.extrinsics_r, obs.extrinsics_t,
                                         pts + t) - obs.anchors_2d, axis=1)
           for obs in observations]
    weights = rows.weights if len(per) > 1 else [rows.weights]
    sq = sum(float((w * err ** 2).sum()) for w, err in zip(weights, per))
    return np.sqrt(sq / max(rows.weight_sum, 1e-30)), np.concatenate(per)


def _assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _two_masked_views(model, rng):
    pose, beta, t = _random_scene(model, rng)
    views = [_exact_obs(model, pose, beta, t),
             _exact_obs(model, pose, beta, t,
                        extr_r=axis_angle_exp(rng.normal(scale=0.3, size=3)).matrix(),
                        extr_t=rng.normal(scale=0.1, size=3))]
    n = len(model.anchor_indices)
    views = [dataclasses.replace(v, anchors_2d=v.anchors_2d + rng.normal(scale=2.0, size=(n, 2)),
                                 laplace_scale=rng.uniform(0.5, 3.0, n)) for v in views]
    aux = np.ones((2, n))
    aux[0, ::5] = 0.0
    aux[1, rng.choice(n, n // 3, replace=False)] = 0.0
    return pose, beta, t, [dataclasses.replace(v, aux_weight=a) for v, a in zip(views, aux)]


@pytest.mark.parametrize("n_views", [1, 2])
def test_kept_rows_and_trimmed_kernels_equal_the_parent_ones(toy_model, rng, n_views):
    pose, beta, t, views = _two_masked_views(toy_model, rng)
    views = views[:n_views]
    cfg = solver.SolveConfig(omega_beta=1e-3, gamma=1e-4,
                             beta_prior=rng.normal(size=toy_model.n_shape))
    rows = solver._dlt_constants(toy_model, views)
    for _ in range(2):                              # built, then kept
        again = solver._dlt_constants(toy_model, views)
        want = _parent_dlt_constants(toy_model, views)
        for name in ("anchor", "m", "m_cross", "const", "weight_sum"):
            _assert_bitwise_equal(getattr(again, name), getattr(want, name))
        for g, w in zip(again.weights if n_views > 1 else [again.weights], want.weights,
                        strict=True):
            _assert_bitwise_equal(g, w)
    assert again.m is rows.m if n_views == 1 else again.m is not rows.m
    for _ in range(3):
        world = solver._world_rotations(toy_model, exp_matrices(
            rng.normal(scale=0.2, size=(toy_model.n_joints, 3))) @ as_matrices(pose))
        beta_lin = beta + rng.normal(scale=0.1, size=beta.shape)
        table = body.pose_anchors(toy_model, world, np.eye(toy_model.n_shape + 1))
        for g, w in zip(solver.assemble_system(toy_model, world, beta_lin, table, rows, cfg),
                        _parent_assemble_system(toy_model, world, beta_lin, table, rows, cfg)):
            _assert_bitwise_equal(g, w)
        t_est = t + rng.normal(scale=0.05, size=3)
        for g, w in zip(solver._residual_report(table, beta_lin, t_est, views, rows),
                        _parent_residual_report(table, beta_lin, t_est, views, rows)):
            _assert_bitwise_equal(g, w)


def _outcome(model, pose, views, cfg):
    try:
        return solver.solve(model, pose, views, cfg)
    except (ValueError, solver.SolverFailure) as e:
        return f"{type(e).__name__}: {e}"


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for f in dataclasses.fields(want):
        _assert_bitwise_equal(getattr(got, f.name), getattr(want, f.name))


@pytest.mark.parametrize("edit", ["mask", "move", "scale", "intrinsics", "reassign"])
def test_a_view_edited_between_solves_solves_as_a_fresh_one(toy_model, rng, edit):
    """A view changed by `dataclasses.replace` solves as a newly built
    Observation holding the same arrays; an in-place edit or a reassigned
    field raises, and leaves the first view and its kept rows as built."""
    init, obs, cfg = _perturbed_solve_inputs(toy_model, rng)
    before = _outcome(toy_model, init, [obs], cfg)
    kept = [np.copy(a) for a in obs.view_rows]
    n = len(toy_model.anchor_indices)
    bad = rng.choice(n, n // 3, replace=False)
    name, index, change = {
        "mask": ("aux_weight", np.s_[::5], lambda a: 0.0 * a),
        "move": ("anchors_2d", bad, lambda a: a + 500.0),
        "scale": ("laplace_scale", bad, lambda a: a * 4.0),
        "intrinsics": ("intrinsics", (0, 2), lambda a: a + 3.0),
        "reassign": ("anchors_2d", np.s_[:], lambda a: a + rng.normal(scale=3.0, size=(n, 2))),
    }[edit]
    value = getattr(obs, name).copy()
    value[index] = change(value[index])
    with pytest.raises(ValueError, match="read-only"):
        getattr(obs, name)[index] = value[index]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obs, name, value)
    for a, built in zip(obs.view_rows, kept, strict=True):
        _assert_bitwise_equal(a, built)
    _assert_same_outcome(_outcome(toy_model, init, [obs], cfg), before)
    edited = dataclasses.replace(obs, **{name: value})
    fresh = solver.Observation(*(getattr(edited, f.name).copy()
                                 for f in dataclasses.fields(edited)))
    got = _outcome(toy_model, init, [edited], cfg)
    _assert_same_outcome(got, _outcome(toy_model, init, [fresh], cfg))
    assert not isinstance(got, str)
    assert not np.array_equal(got.per_anchor_residuals, before.per_anchor_residuals)


def test_an_observation_holds_read_only_copies_of_its_arrays():
    args = {"anchors_2d": np.zeros((5, 2)), "laplace_scale": np.ones(5),
            "aux_weight": np.ones(5), "intrinsics": K_MAT.copy(),
            "extrinsics_r": np.eye(3), "extrinsics_t": np.zeros(3)}
    obs = solver.Observation(**args)
    for name, given in args.items():
        held = getattr(obs, name)
        _assert_bitwise_equal(held, given)
        with pytest.raises(ValueError, match="read-only"):
            held.flat[0] = 7.0
        given.flat[0] = 7.0                 # the caller's own array stays writable
        assert held.flat[0] != 7.0, name
    default = solver.Observation(np.zeros((2, 2)), np.ones(2), None, K_MAT)
    with pytest.raises(ValueError, match="read-only"):
        default.aux_weight[0] = 0.0


@pytest.mark.parametrize("name, index, bad, message", [
    ("aux_weight", 3, -1.0, "aux_weight must be nonnegative"),
    ("anchors_2d", (2, 1), np.nan, "anchors_2d must be finite"),
    ("laplace_scale", 0, 0.0, "laplace_scale must be positive"),
    ("intrinsics", (2, 0), 0.5, "intrinsics row 3 must be")])
def test_a_bad_value_enters_a_view_only_through_its_checks(toy_model, rng, name, index, bad,
                                                           message):
    # an in-place write cannot slip it past them, and `replace` runs them all
    _, obs, _ = _perturbed_solve_inputs(toy_model, rng)
    with pytest.raises(ValueError, match="read-only"):
        getattr(obs, name)[index] = bad
    value = getattr(obs, name).copy()
    value[index] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(obs, **{name: value})


def test_a_two_view_solve_after_a_one_view_solve_builds_only_the_second_view(
        toy_model, rng, monkeypatch):
    pose, _, _, views = _two_masked_views(toy_model, rng)
    built, real = [], solver._view_rows
    monkeypatch.setattr(solver, "_view_rows", lambda obs: built.append(obs) or real(obs))
    cfg = solver.SolveConfig(gamma=1e-4, max_relinearizations=1)
    solver.solve(toy_model, pose, views[:1], cfg)
    solver.solve(toy_model, pose, views, cfg)
    solver.solve_multi_view(toy_model, [pose, pose], views, cfg)
    assert [id(o) for o in built] == [id(v) for v in views]


def test_kept_rows_are_read_only(toy_model, rng):
    _, obs, _ = _perturbed_solve_inputs(toy_model, rng)
    view = obs.view_rows
    assert obs.view_rows is view
    for name in ("anchor", "m", "m_cross", "const", "weights"):
        kept = getattr(view, name)
        assert not kept.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1
    assert solver._dlt_constants(toy_model, [obs]) is view


def test_solves_under_different_regularizers_share_one_views_kept_rows(
        toy_model, rng, monkeypatch):
    """The regularizers enter at assembly: every solve of one view assembles
    from that view's kept rows, whatever its config's gamma, omega_beta and
    prior, and the rows stay as they were built."""
    init, obs, _ = _perturbed_solve_inputs(toy_model, rng)
    view = obs.view_rows
    copies = [np.copy(a) for a in view]
    assembled, real = [], solver.assemble_system
    monkeypatch.setattr(solver, "assemble_system",
                        lambda *args: assembled.append(args[4]) or real(*args))
    for cfg in (solver.SolveConfig(), solver.SolveConfig(gamma=1e-2, max_relinearizations=1),
                solver.SolveConfig(omega_beta=0.5, beta_prior=rng.normal(size=toy_model.n_shape)),
                solver.SolveConfig(omega_beta=3.0, gamma=1e-4,
                                   beta_prior=rng.normal(size=toy_model.n_shape))):
        solver.solve_single_view(toy_model, init, obs, cfg)
    assert len(assembled) >= 4 and all(rows is view for rows in assembled)
    for kept, built in zip(view, copies):
        _assert_bitwise_equal(kept, built)


def test_chol_solve_jitters_a_singular_system_and_names_a_non_spd_one():
    a = np.diag([4.0, 0.0])
    np.testing.assert_allclose(solver._chol_solve(a, np.array([2.0, 0.0])), [0.5, 0.0])
    with pytest.raises(solver.SolverFailure, match="not SPD even with jitter"):
        solver._chol_solve(-np.eye(3), np.ones(3))
    spd = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(solver._chol_solve(spd, b), np.linalg.solve(spd, b),
                               rtol=1e-14, atol=0)


def test_anchor_weights_floor_and_scaling():
    w = solver.anchor_weights(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert abs(w[0] / w[1] - (2.0 + 1e-6) / (1.0 + 1e-6)) < 1e-9
    wz = solver.anchor_weights(np.array([1.0]), np.array([0.0]))
    assert wz[0] == 0.0


def test_occluded_anchors_ignored(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    # corrupt a third of the anchors but mask them via aux weights
    n = len(toy_model.anchor_indices)
    bad = rng.choice(n, n // 3, replace=False)
    anchors, aux = obs.anchors_2d.copy(), np.ones(n)
    anchors[bad] += 500.0
    aux[bad] = 0.0
    obs = dataclasses.replace(obs, anchors_2d=anchors, aux_weight=aux)
    res = solver.solve_single_view(toy_model, pose, obs, solver.SolveConfig())
    assert np.linalg.norm(res.translation - t) < 1e-6


def test_underdetermined_raises(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    aux = np.zeros(len(toy_model.anchor_indices))
    aux[:3] = 1.0  # 6 rows for 3K+S+3 unknowns
    obs = dataclasses.replace(obs, aux_weight=aux)
    with pytest.raises(solver.UnderdeterminedError):
        solver.solve_single_view(toy_model, pose, obs, solver.SolveConfig())


def test_multi_view_single_matches_single_view(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    cfg = solver.SolveConfig()
    a = solver.solve_single_view(toy_model, pose, obs, cfg)
    b = solver.solve_multi_view(toy_model, [pose], [obs], cfg)
    np.testing.assert_array_equal(a.translation, b.translation)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.delta_vectors, b.delta_vectors)


def test_multi_view_consistent_solution(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs1 = _exact_obs(toy_model, pose, beta, t)
    # second camera 90 degrees around the subject
    ang = np.pi / 2
    r2 = np.array([[np.cos(ang), 0, -np.sin(ang)],
                   [0, 1, 0],
                   [np.sin(ang), 0, np.cos(ang)]])
    c2 = np.array([3.0, 0.0, 3.0])
    t2 = -r2 @ c2
    obs2 = _exact_obs(toy_model, pose, beta, t, extr_r=r2, extr_t=t2)
    # the solver expects per-view initial poses expressed in view frame
    from flowpose.rotation import matrix_to_quat
    pose_v2 = [matrix_to_quat(r2 @ pose[0].matrix())] + pose[1:]
    res = solver.solve_multi_view(toy_model, [pose, pose_v2], [obs1, obs2],
                                  solver.SolveConfig())
    assert np.linalg.norm(res.translation - t) < 1e-6
    assert res.weighted_rms_residual < 1e-6


def test_multi_view_reads_a_single_view_root_in_its_camera_frame(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    r = axis_angle_exp(np.array([0.2, 1.1, -0.3])).matrix()
    obs = _exact_obs(toy_model, pose, beta, t, extr_r=r, extr_t=np.array([0.5, 0.0, 1.0]))
    in_camera = as_matrices(pose)
    in_camera[0] = r @ in_camera[0]
    cfg = solver.SolveConfig()
    res = solver.solve_multi_view(toy_model, [in_camera], [obs], cfg)
    ref = solver.solve(toy_model, pose, [obs], cfg)
    np.testing.assert_allclose(res.pose, ref.pose, rtol=0, atol=1e-12)
    assert res.weighted_rms_residual < 1e-8


def test_beta_prior_pulls_shape(toy_model, rng):
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    strong = solver.SolveConfig(omega_beta=1e6)
    res = solver.solve_single_view(toy_model, pose, obs, strong)
    assert np.abs(res.beta).max() < np.abs(beta).max()


def test_laplacian_nll_value_and_grad(rng):
    pred = ag.leaf(rng.normal(size=(6, 2)))
    scale = ag.leaf(rng.uniform(0.5, 2.0, size=6))
    gt = rng.normal(size=(6, 2))

    # oracle: mean over anchors of log(2 b) + (|ex| + |ey|) / b
    p, b = np.asarray(pred.value), np.asarray(scale.value)
    expect = np.mean(np.log(2 * b) + np.abs(p - gt).sum(axis=1) / b)
    got = float(ag.as_array(solver.laplacian_nll(pred, scale, gt)))
    assert abs(got - expect) < 1e-10
    assert ag.finite_diff_check(
        lambda: solver.laplacian_nll(pred, scale, gt), [pred, scale]) < 1e-6


def test_laplacian_stationary_scale(rng):
    # d/db [log(2b) + L1/b] = 0 at b = L1, the per-anchor absolute residual
    resid = rng.normal(size=(8, 2))
    scale = ag.leaf(np.abs(resid).sum(axis=1))
    nll = solver.laplacian_nll(ag.leaf(resid), scale,
                               np.zeros_like(resid))
    ag.backward(nll)
    assert np.abs(scale.grad).max() < 1e-12


def _reference_solve(model, pose_init, observations, cfg):
    """The reference `solve` must match: a direct loop that rebuilds each
    view's einsum DLT rows at every linearization, poses the anchors again
    for the residual through `reproject`, and factors with SciPy's
    cho_factor/cho_solve.  Returns (pose, beta, t, rms, n_relinearizations)."""
    from scipy.linalg import cho_factor, cho_solve
    k, s = model.n_joints, model.n_shape
    levers = model.anchor_levers[1]
    n_rest, n_a = levers.shape[:2]
    generators = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1)   # [e_i]x

    def assemble(world, beta_lin):
        coef = np.concatenate([[1.0], beta_lin])
        posed = body.pose_anchors(model, world, np.concatenate([coef[None], np.eye(n_rest)[1:]]))
        p0, d_beta = posed[0], np.swapaxes(posed[1:], 0, 1)
        lev = (coef @ levers.reshape(n_rest, -1)).reshape(n_a, k, 3)
        y = np.swapaxes(np.swapaxes(lev, 0, 1) @ np.swapaxes(world, -1, -2), 0, 1)
        d_delta = (y @ -generators.reshape(3, 9)).reshape(n_a, k, 3, 3)
        blocks_j, blocks_r = [], []
        for obs in observations:
            wts = solver.anchor_weights(obs.laplace_scale, obs.aux_weight)
            kk = obs.intrinsics
            rows = obs.anchors_2d[:, :, None] * kk[2] - kk[:2]
            m = rows[..., :3] @ obs.extrinsics_r
            j_beta = np.einsum("acj,asj->acs", m, d_beta)
            jrows = np.concatenate([np.einsum("acj,akjl->ackl", m, d_delta).reshape(n_a, 2, -1),
                                    j_beta, m], axis=2)
            q0 = p0 @ obs.extrinsics_r.T + obs.extrinsics_t
            rhs = -(np.einsum("aci,ai->ac", rows[..., :3], q0) + rows[..., 3]) + j_beta @ beta_lin
            keep = np.repeat(wts > 0, 2)
            blocks_j.append((wts[:, None, None] * jrows).reshape(2 * n_a, -1)[keep])
            blocks_r.append((wts[:, None] * rhs).reshape(-1)[keep])
        jmat = np.vstack(blocks_j)
        a, b = jmat.T @ jmat, jmat.T @ np.concatenate(blocks_r)
        if cfg.omega_beta > 0:
            diag = np.arange(3 * k, 3 * k + s)
            a[diag, diag] += cfg.omega_beta
            b[diag] += cfg.omega_beta * (np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior)
        if cfg.gamma > 0:
            diag = np.arange(3 * k)
            a[diag, diag] += cfg.gamma
        return a, b

    def chol_solve(a, b):
        try:
            factor = cho_factor(a, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            try:
                factor = cho_factor(a + solver.JITTER * np.eye(len(a)), lower=True,
                                    check_finite=False)
            except np.linalg.LinAlgError:
                raise solver.SolverFailure("normal equations not SPD even with jitter")
        return cho_solve(factor, b, check_finite=False)

    def residual(world, beta, t):
        per, wacc, sqacc = [], 0.0, 0.0
        for obs in observations:
            wts = solver.anchor_weights(obs.laplace_scale, obs.aux_weight)
            err = np.linalg.norm(solver.reproject(model, world, beta, t, obs) - obs.anchors_2d,
                                 axis=1)
            per.append(err)
            sqacc += float((wts * err ** 2).sum())
            wacc += float(wts.sum())
        return np.sqrt(sqacc / max(wacc, 1e-30)), np.concatenate(per)

    beta_lin = np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior
    world = solver._world_rotations(model, as_matrices(pose_init))
    prev_rms, increases, n_lin = np.inf, 0, 0
    while True:
        x = chol_solve(*assemble(world, beta_lin))
        delta, beta, t = x[:3 * k].reshape(k, 3), x[3 * k:3 * k + s], x[3 * k + s:]
        world = solver.exp_matrices(delta) @ world
        rms, per = residual(world, beta, t)
        if rms > prev_rms:
            increases += 1
            if increases >= 2:
                raise solver.DivergenceError("residual increased on two consecutive "
                                             "relinearizations")
        else:
            increases = 0
        prev_rms = rms
        if n_lin >= cfg.max_relinearizations or np.abs(delta).max() < 1e-6:
            return solver._relative_from_world(model, world), beta, t, rms, n_lin
        n_lin += 1
        beta_lin = beta


def _basin_starts(model, trained_model):
    """GT poses perturbed per joint by 5, 10, 20 and 40 degrees, seen by one
    view and by two (1 px noise), then flow draws from the criterion-8 fixture:
    (pose, views, cfg) per start."""
    rng = np.random.default_rng(11)
    scenes = synth.gen_dataset(model, 5, synth.standard_rig(2), synth.NoiseSpec(1.0), seed=11)
    starts = []
    for rec in scenes:
        for deg in (5.0, 10.0, 20.0, 40.0):
            init = [p.compose(axis_angle_exp(np.radians(deg) * _unit(rng)))
                    for p in rec.gt_state.pose]
            for views in (rec.views[:1], rec.views):
                starts.append((init, views, solver.SolveConfig(
                    omega_beta=1e-3, gamma=1e-4, max_relinearizations=5)))
    t_model, dataset, flow, encode = trained_model
    assert t_model.n_joints == model.n_joints
    for j, rec in enumerate(dataset[:4]):
        draws = flow.flow_sample(encode(rec.context_features), 5, np.random.default_rng(j),
                                 include_mode=True)
        for rotations, shape in zip(draws.rotations, draws.shapes):
            starts.append((rotations, rec.views[:1], solver.SolveConfig(
                omega_beta=1e-3, gamma=1e-4, beta_prior=shape, max_relinearizations=2)))
    return starts


def test_solve_matches_the_reference_loop(toy_model, trained_model):
    """Every start raises or returns as the reference loop does, and pose,
    beta, t and the residual agree to 1e-9 (the residual relative to its size)."""
    outcomes = []
    for pose, views, cfg in _basin_starts(toy_model, trained_model):
        try:
            want = _reference_solve(toy_model, pose, views, cfg)
        except solver.SolverFailure as e:
            with pytest.raises(type(e)):
                solver.solve(toy_model, pose, views, cfg)
            outcomes.append(type(e))
            continue
        got = solver.solve(toy_model, pose, views, cfg)
        assert got.n_relinearizations == want[4]
        for g, w in zip((got.pose, got.beta, got.translation), want[:3]):
            assert np.abs(g - w).max() <= 1e-9
        assert abs(got.weighted_rms_residual - want[3]) <= 1e-9 * max(1.0, want[3])
        outcomes.append("returned")
    assert len(outcomes) >= 40
    assert "returned" in outcomes and solver.DivergenceError in outcomes


def test_one_assembly_and_one_factorization_per_linearization(toy_model, rng, monkeypatch):
    calls = {"assemble_system": 0, "_chol_solve": 0}
    for name in calls:
        def counting(*args, real=getattr(solver, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, counting)
    for max_relin in range(4):
        init, obs, _ = _perturbed_solve_inputs(toy_model, rng)
        before = dict(calls)
        res = solver.solve_single_view(toy_model, init, obs, solver.SolveConfig(
            gamma=1e-4, max_relinearizations=max_relin))
        for name in calls:
            assert calls[name] - before[name] == res.n_relinearizations + 1 == max_relin + 1


@pytest.mark.parametrize("max_relin", [0, 2])
def test_solve_raises_on_a_non_finite_step(toy_model, max_relin):
    # finite anchors whose normal equations overflow: the step is NaN, and
    # the solve raises instead of returning NaN rotations, t and rms; the
    # overflow shows only as that SolverFailure, with no numpy warning
    rec = synth.make_scene(toy_model, synth.standard_rig(1), synth.NoiseSpec(1.0), 3)
    view = dataclasses.replace(rec.views[0], anchors_2d=rec.views[0].anchors_2d * 1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(solver.SolverFailure, match="non-finite step at linearization 0"):
            solver.solve(toy_model, rec.gt_state.pose, [view],
                         solver.SolveConfig(max_relinearizations=max_relin))
    assert caught == []


@pytest.mark.parametrize("index", [(0, 0, 0), (3, 2, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_a_non_finite_pose_init(toy_model, rng, index, bad):
    init, obs, cfg = _perturbed_solve_inputs(toy_model, rng)
    mats = as_matrices(init)
    mats[index] = bad
    with pytest.raises(ValueError, match="pose_init must be finite"):
        solver.solve_single_view(toy_model, mats, obs, cfg)
    with pytest.raises(ValueError, match="per_view_poses must be finite"):
        solver.solve_multi_view(toy_model, [init, mats], [obs, obs], cfg)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_solve_rejects_a_non_finite_beta_prior(toy_model, rng, bad):
    init, obs, _ = _perturbed_solve_inputs(toy_model, rng)
    prior = np.zeros(toy_model.n_shape)
    prior[1] = bad
    with pytest.raises(ValueError, match="beta_prior must be finite"):
        solver.solve_single_view(toy_model, init, obs, solver.SolveConfig(
            omega_beta=1e-3, beta_prior=prior))


def _spoiled(data, values):
    """values (an array), with one entry made non-finite in some examples."""
    if data.draw(st.booleans()):
        values.flat[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solve_raises_or_returns_finite_fields(toy_model, data):
    """Generated poses, priors and weights: `solve` raises ValueError or
    SolverFailure, or every field of its result is finite."""
    k, s = toy_model.n_joints, toy_model.n_shape
    n = len(toy_model.anchor_indices)

    def floats(lo, hi, size):
        return st.lists(st.floats(lo, hi), min_size=size, max_size=size)

    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    pose, beta, t = _random_scene(toy_model, rng)
    obs = _exact_obs(toy_model, pose, beta, t)
    anchors = obs.anchors_2d + rng.normal(scale=data.draw(st.floats(0.0, 50.0)), size=(n, 2))
    scale = np.array(data.draw(floats(1e-3, 1e3, n)))
    # most anchors keep weight 1; the rest get a drawn weight, 0 among them
    aux = np.ones(n)
    for a in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        aux[a] = data.draw(st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-300]))
    obs = dataclasses.replace(obs, anchors_2d=anchors, laplace_scale=scale, aux_weight=aux)
    with np.errstate(invalid="ignore"):          # exp of an infinite rotation vector is NaN
        pose_init = exp_matrices(_spoiled(data, np.array(data.draw(floats(-4.0, 4.0, 3 * k)))
                                          .reshape(k, 3)))
    prior = data.draw(st.none() | floats(-1e3, 1e3, s))
    weights = st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-300, 1e300])
    cfg = solver.SolveConfig(omega_beta=data.draw(weights), gamma=data.draw(weights),
                             beta_prior=None if prior is None else _spoiled(data, np.array(prior)),
                             max_relinearizations=data.draw(st.integers(0, 4)))
    try:
        res = solver.solve(toy_model, pose_init, [obs], cfg)
    except (ValueError, solver.SolverFailure):
        return
    for f in dataclasses.fields(res):
        assert np.isfinite(getattr(res, f.name)).all(), f.name
