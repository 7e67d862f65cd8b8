"""Evaluation metrics: alignment, per-joint errors, protocol plumbing."""

import dataclasses

import numpy as np
import pytest

from flowpose import body, metrics, solver, synth
from flowpose.rotation import as_matrices, axis_angle_exp, matrix_to_quat


def _procrustes_one(pred, gt):
    """Reference single-pose Procrustes alignment (one set at a time)."""
    if pred.shape[0] < 3:
        raise metrics.DegenerateAlignmentError("need at least 3 points")
    mu_p, mu_g = pred.mean(axis=0), gt.mean(axis=0)
    xp, xg = pred - mu_p, gt - mu_g
    var_p = (xp ** 2).sum()
    if var_p < 1e-18:
        raise metrics.DegenerateAlignmentError("degenerate point set")
    u, s, vt = np.linalg.svd(xg.T @ xp)
    v = vt.T
    flip = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ v.T))])
    if s[1] < 1e-12 * max(s[0], 1e-300):
        raise metrics.DegenerateAlignmentError("collinear point set")
    return (s * np.diag(flip)).sum() / var_p * xp @ (u @ flip @ v.T).T + mu_g


def _reference_scene(model, rec, samples, use_solver, views, solve_cfg):
    """The six per-scene metrics and the solver failures, one draw at a
    time: each PoseSample posed through joints_3d and scored alone."""
    gt_j = metrics.joints_3d(model, rec.gt_state.pose, rec.gt_state.shape,
                             rec.gt_state.translation)
    obs_list = rec.views[:views]
    errs, pas, abss, kp_mode, failures = [], [], [], None, 0
    for si, smp in enumerate(samples):
        pose, shape, t = smp.joint_rotations, smp.shape, rec.gt_state.translation
        if use_solver:
            per_view = [samples.rotations[si]] if views == 1 else [
                [matrix_to_quat(v.extrinsics_r @ pose[0].matrix())] + pose[1:]
                for v in obs_list]
            try:
                res = solver.solve_multi_view(
                    model, per_view, obs_list,
                    dataclasses.replace(solve_cfg, beta_prior=smp.shape))
                pose, shape, t = res.pose, res.beta, res.translation
            except solver.SolverFailure:
                failures += 1
        pj = metrics.joints_3d(model, pose, shape, t)
        root = pj - pj[0] + gt_j[0]
        errs.append(np.linalg.norm(root - gt_j, axis=1).mean())
        pas.append(np.linalg.norm(_procrustes_one(pj, gt_j) - gt_j, axis=1).mean())
        abss.append(np.linalg.norm(pj - gt_j, axis=1).mean())
        if si == 0:
            obs0 = rec.views[0]
            pts = body.pose_points(model, body._world_rotations(model, as_matrices(pose)),
                                   body.shape_blend(model, shape))[model.anchor_indices]
            px = synth.project(obs0.intrinsics, obs0.extrinsics_r, obs0.extrinsics_t,
                               pts + np.asarray(t, float))
            kp_mode = metrics.kp2d_error(px, rec.gt_anchors[0])
    return {"mpjpe_mode": errs[0], "mpjpe_min": min(errs), "pa_mpjpe_mode": pas[0],
            "pa_mpjpe_min": min(pas), "abs_mpjpe_mode": abss[0], "kp2d_mode": kp_mode}, failures


def test_procrustes_recovers_similarity(rng):
    pts = rng.normal(size=(10, 3))
    g = axis_angle_exp(rng.normal(scale=0.8, size=3))
    moved = 1.7 * pts @ g.matrix().T + np.array([0.3, -1.0, 2.0])
    aligned = metrics.procrustes_align(pts, moved)
    assert np.abs(aligned - moved).max() < 1e-9


def test_procrustes_no_reflection(rng):
    pts = rng.normal(size=(10, 3))
    mirrored = pts * np.array([-1.0, 1.0, 1.0])
    aligned = metrics.procrustes_align(pts, mirrored)
    # a proper rotation cannot reproduce a reflection exactly
    assert np.abs(aligned - mirrored).max() > 1e-3


def test_procrustes_degenerate_raises():
    pts = np.zeros((5, 3))
    with pytest.raises(metrics.DegenerateAlignmentError):
        metrics.procrustes_align(pts, pts)


def test_batched_procrustes_matches_single_pose(rng):
    gt = rng.normal(size=(8, 3))
    preds = np.stack([1.3 * gt @ axis_angle_exp(rng.normal(size=3)).matrix().T
                      + 0.05 * rng.normal(size=(8, 3)) for _ in range(6)])
    preds[2] = gt * np.array([-1.0, 1.0, 1.0])         # a reflection of gt
    got = metrics.procrustes_align(preds, gt)
    for p, g in zip(preds, got):
        np.testing.assert_allclose(g, _procrustes_one(p, gt), rtol=0, atol=1e-12)
        np.testing.assert_allclose(metrics.procrustes_align(p, gt), g, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        metrics.pa_mpjpe(preds, gt),
        [np.linalg.norm(_procrustes_one(p, gt) - gt, axis=1).mean() for p in preds],
        rtol=1e-12)
    # one degenerate or collinear set fails the whole batch, as it fails alone
    for bad in (np.zeros((8, 3)), np.outer(np.linspace(0.0, 1.0, 8), [1.0, 2.0, 0.5])):
        with pytest.raises(metrics.DegenerateAlignmentError):
            _procrustes_one(bad, gt)
        with pytest.raises(metrics.DegenerateAlignmentError):
            metrics.procrustes_align(np.concatenate([preds, bad[None]]), gt)
    with pytest.raises(metrics.DegenerateAlignmentError):
        metrics.procrustes_align(preds[:, :2], gt[:2])


def test_mpjpe_known_value():
    gt = np.zeros((4, 3))
    pred = np.zeros((4, 3))
    pred[:, 0] = 0.1
    # root alignment removes a shared offset entirely
    assert abs(metrics.mpjpe(pred, gt, root_align=True)) < 1e-12
    assert abs(metrics.mpjpe(pred, gt, root_align=False) - 0.1) < 1e-12


def test_pa_mpjpe_invariant_to_similarity(rng):
    gt = rng.normal(size=(8, 3))
    g = axis_angle_exp(rng.normal(size=3))
    pred = 2.0 * gt @ g.matrix().T + 5.0
    assert metrics.pa_mpjpe(pred, gt) < 1e-9


def test_kp2d_error_known_value():
    a = np.zeros((3, 2))
    b = np.tile([3.0, 4.0], (3, 1))
    assert abs(metrics.kp2d_error(a, b) - 5.0) < 1e-12


def test_joints_3d_matches_fk(toy_model, rng):
    pose = [axis_angle_exp(rng.normal(scale=0.3, size=3))
            for _ in range(toy_model.n_joints)]
    beta = rng.normal(scale=0.5, size=toy_model.n_shape)
    t = np.array([0.0, 0.0, 3.0])
    j = metrics.joints_3d(toy_model, pose, beta, t)
    _, j_ref = body.forward_kinematics(toy_model,
                                       body.BodyState(pose, beta, t))
    np.testing.assert_allclose(j, j_ref, atol=1e-12)


def test_min_and_mode_protocol():
    vals = [0.5, 0.3, 0.9, 0.2]
    mode, mn = metrics._min_and_mode(vals)
    assert mode == 0.5   # first entry is the mode sample
    assert mn == 0.2
    assert mn <= mode


def test_multi_view_trend_improves_absolute(toy_model):
    rig = synth.depth_ambiguous_rig(2)
    ds = synth.gen_dataset(toy_model, 20, rig, synth.NoiseSpec(0.5), seed=2)
    rep = metrics.multi_view_trend(toy_model, ds, init_sigma_deg=8.0, seed=0)
    assert rep["abs_2v"] < rep["abs_1v"]
    assert rep["rel_2v"] < 1.1 * rep["rel_1v"]


def test_evaluate_with_solver_scores_failed_refinements(trained_model):
    model, dataset, flow, encode = trained_model
    scenes, n = dataset[:4], 5
    rep = metrics.evaluate(flow, encode, model, scenes, n_samples=n,
                           use_solver=True, rng_seed=3)
    # replay the same draws through the single-view solver
    rng = np.random.default_rng(3)
    failed = 0
    for rec in scenes:
        for smp in flow.flow_sample(encode(rec.context_features), n, rng,
                                    include_mode=True):
            cfg = solver.SolveConfig(omega_beta=1e-3, gamma=1e-4, beta_prior=smp.shape,
                                     max_relinearizations=2)
            try:
                solver.solve_single_view(model, smp.joint_rotations, rec.views[0], cfg)
            except solver.SolverFailure:
                failed += 1
    assert failed > 0
    assert rep["summary"]["solver_failures"] == failed
    assert all(np.isfinite(v).all() for v in rep["per_scene"].values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_scores_a_non_finite_refinement_unrefined(trained_model):
    # anchors whose normal equations overflow: every refinement raises,
    # and each draw is scored as without the solver
    model, dataset, flow, encode = trained_model
    rec = dataset[0]
    view = dataclasses.replace(rec.views[0], anchors_2d=rec.views[0].anchors_2d * 1e200)
    scenes = [dataclasses.replace(rec, views=[view])]
    plain = metrics.evaluate(flow, encode, model, scenes, n_samples=3, rng_seed=2)
    rep = metrics.evaluate(flow, encode, model, scenes, n_samples=3, use_solver=True,
                           rng_seed=2)
    assert rep["summary"]["solver_failures"] == 4
    assert rep["per_scene"] == plain["per_scene"]


@pytest.mark.parametrize("use_solver", [False, True])
def test_evaluate_matches_per_draw_loop(trained_model, use_solver):
    model, dataset, flow, encode = trained_model
    scenes, n = dataset[:3], 12 if use_solver else 40
    cfg = solver.SolveConfig(omega_beta=1e-3, gamma=1e-4, max_relinearizations=2)
    rep = metrics.evaluate(flow, encode, model, scenes, n_samples=n,
                           use_solver=use_solver, rng_seed=5)
    rng = np.random.default_rng(5)
    failures = 0
    for s, rec in enumerate(scenes):
        batch = flow.flow_sample(encode(rec.context_features), n, rng, include_mode=True)
        ref, failed = _reference_scene(model, rec, batch, use_solver, 1, cfg)
        failures += failed
        for key, value in ref.items():
            assert abs(rep["per_scene"][key][s] - value) <= 1e-12 * abs(value), key
    if use_solver:
        assert rep["summary"]["solver_failures"] == failures


def test_evaluate_scores_a_refinement_behind_the_camera(trained_model, monkeypatch):
    # a refinement may move the body behind the camera: its kp2d is scored
    # from the mirrored pixels, and the evaluation goes on
    model, dataset, flow, encode = trained_model

    def behind(model, pose_init, observations, cfg):
        pose = as_matrices(pose_init)
        return solver.SolveResult(np.zeros((model.n_joints, 3)), pose, pose, cfg.beta_prior,
                                  np.array([0.0, 0.0, -3.0]), 0.0, np.zeros(0))

    monkeypatch.setattr(metrics, "solve", behind)
    rep = metrics.evaluate(flow, encode, model, dataset[:2], n_samples=2, use_solver=True)
    assert rep["summary"]["solver_failures"] == 0
    assert np.isfinite(rep["per_scene"]["kp2d_mode"]).all()


def test_evaluate_rejects_more_views_than_a_scene_has(trained_model):
    model, dataset, flow, encode = trained_model
    assert len(dataset[0].views) == 1
    with pytest.raises(ValueError, match="views"):
        metrics.evaluate(flow, encode, model, dataset[:2], n_samples=2,
                         use_solver=True, views=3)


@pytest.mark.parametrize("kwargs, name", [
    ({"views": 0}, "views"), ({"views": True}, "views"),
    ({"views": 1.0}, "views"), ({"n_samples": True}, "n_samples"),
    ({"n_samples": 2.0}, "n_samples"), ({"n_samples": -1}, "n_samples")])
def test_evaluate_rejects_a_bad_count(trained_model, kwargs, name):
    # counts that are not integers (a bool included) or too small name
    # their argument before any draw
    model, dataset, flow, encode = trained_model
    assert len(dataset[0].views) == 1
    args = {"n_samples": 2, "use_solver": True, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} must"):
        metrics.evaluate(flow, encode, model, dataset[:2], **args)


def test_evaluate_builds_each_view_rows_once(trained_model, monkeypatch):
    # every refinement of a scene's draws solves against the same views, so
    # their DLT rows are built once per view, not once per draw
    model, _, flow, encode = trained_model
    built, real = [], solver._view_rows
    monkeypatch.setattr(solver, "_view_rows", lambda obs: built.append(obs) or real(obs))
    for views in (1, 2):
        scenes = synth.gen_dataset(model, 2, synth.standard_rig(views), synth.NoiseSpec(1.0),
                                   seed=21)
        built.clear()
        metrics.evaluate(flow, encode, model, scenes, n_samples=4, use_solver=True, views=views)
        assert [id(o) for o in built] == [id(v) for rec in scenes for v in rec.views]


def test_evaluate_multi_view_hands_solver_the_world_pose(trained_model, monkeypatch):
    # `solver.solve` takes the initial pose in the world frame, so each
    # refinement must start from the draw's own pose, unchanged
    model, _, flow, encode = trained_model
    scenes = synth.gen_dataset(model, 2, synth.standard_rig(2), synth.NoiseSpec(1.0), seed=9)
    assert not np.allclose(scenes[0].views[1].extrinsics_r, np.eye(3))
    inits, real_solve = [], solver.solve

    def spy(model, pose_init, observations, cfg):
        assert len(observations) == 2
        inits.append(as_matrices(pose_init))
        return real_solve(model, pose_init, observations, cfg)

    # metrics binds solver.solve by name
    monkeypatch.setattr(metrics, "solve", spy)
    n = 3
    metrics.evaluate(flow, encode, model, scenes, n_samples=n, use_solver=True,
                     views=2, rng_seed=1)
    rng = np.random.default_rng(1)
    draws = [m for rec in scenes for m in
             flow.flow_sample(encode(rec.context_features), n, rng, include_mode=True).rotations]
    assert len(inits) == len(draws)
    for got, want in zip(inits, draws):
        np.testing.assert_array_equal(got, want)


def test_evaluate_and_multi_view_trend_reject_an_empty_dataset(trained_model):
    model, _, flow, encode = trained_model
    with pytest.raises(ValueError, match="^dataset must hold at least one scene$"):
        metrics.evaluate(flow, encode, model, [], n_samples=2)
    with pytest.raises(ValueError, match="^dataset must hold at least one scene$"):
        metrics.multi_view_trend(model, [])
