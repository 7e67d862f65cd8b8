"""Evaluation metrics: alignment, per-joint errors, protocol plumbing."""

import numpy as np
import pytest

from flowpose import body, metrics, solver, synth
from flowpose.rotation import axis_angle_exp


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
