"""Evaluation metrics and the desk-scale experiments.

Root-aligned and Procrustes-aligned joint errors, 2D keypoint error,
the mode / min-of-n sampling protocol, and the single- vs multi-view
comparison on the depth-ambiguous rig.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .body import BodyModelDef, _chain_positions, _world_rotations, rest_joints
from .checks import check_fields
from .rotation import as_matrices, exp_matrices
from .solver import (SolveConfig, SolverFailure, check_anchor_counts, reproject, solve,
                     solve_multi_view)


# solver settings of evaluate's refinements and of the multi-view experiment
EVAL_SOLVE = SolveConfig(omega_beta=1e-3, gamma=1e-4, max_relinearizations=2)
TREND_SOLVE = SolveConfig(omega_beta=1e-2, gamma=1e-2, max_relinearizations=2)


class DegenerateAlignmentError(ValueError):
    pass


def procrustes_align(pred, gt):
    """Best similarity transform (scale, rotation, translation) of pred onto
    gt, for point sets (...,J,3) whose leading axes broadcast; one batched
    SVD aligns every set."""
    pred = np.asarray(pred, float)
    gt = np.asarray(gt, float)
    if pred.shape[-2] < 3:
        raise DegenerateAlignmentError("need at least 3 points")
    mu_p, mu_g = pred.mean(axis=-2, keepdims=True), gt.mean(axis=-2, keepdims=True)
    xp, xg = pred - mu_p, gt - mu_g
    var_p = (xp ** 2).sum(axis=(-2, -1))
    if (var_p < 1e-18).any():
        raise DegenerateAlignmentError("degenerate point set")
    cov = np.swapaxes(xg, -1, -2) @ xp
    u, s, vt = np.linalg.svd(cov)      # cov = u diag(s) vt
    if (s[..., 1] < 1e-12 * np.maximum(s[..., 0], 1e-300)).any():
        raise DegenerateAlignmentError("collinear point set")
    flip = np.ones_like(s)
    flip[..., 2] = np.sign(np.linalg.det(u @ vt))
    r = (u * flip[..., None, :]) @ vt
    scale = (s * flip).sum(axis=-1) / var_p
    return scale[..., None, None] * xp @ np.swapaxes(r, -1, -2) + mu_g


def mpjpe(pred, gt, root_align=True):
    """Mean per-joint position error in meters of poses pred (...,J,3)."""
    pred = np.asarray(pred, float)
    gt = np.asarray(gt, float)
    if root_align:
        pred = pred - pred[..., :1, :] + gt[..., :1, :]
    return np.linalg.norm(pred - gt, axis=-1).mean(axis=-1)


def pa_mpjpe(pred, gt):
    return np.linalg.norm(procrustes_align(pred, gt) - gt, axis=-1).mean(axis=-1)


def kp2d_error(pred_px, gt_px):
    return float(np.linalg.norm(np.asarray(pred_px) - np.asarray(gt_px), axis=1).mean())


def joints_3d(model: BodyModelDef, pose, shape, translation):
    world = _world_rotations(model, as_matrices(pose))
    return _chain_positions(model, world, rest_joints(model, shape)) + np.asarray(translation, float)


def _min_and_mode(values):
    # sample 0 is the mode by convention of flow_sample(include_mode=True)
    return float(values[0]), float(np.min(values))


def _refine(model, batch, views, translation):
    """Solver-refined (rotations, shapes, translations) of every draw of a
    PoseBatch over the given views, and the number of refinements that
    raised SolverFailure; such a draw keeps its sampled pose and shape and
    the given translation."""
    rel, shapes = batch.rotations.copy(), batch.shapes.copy()
    trans = np.tile(np.asarray(translation, float), (len(batch), 1))
    failures = 0
    for i, pose in enumerate(batch.rotations):
        try:
            res = solve(model, pose, views,
                        dataclasses.replace(EVAL_SOLVE, beta_prior=batch.shapes[i]))
        except SolverFailure:
            failures += 1
            continue
        rel[i], shapes[i], trans[i] = res.pose, res.beta, res.translation
    return rel, shapes, trans, failures


def evaluate(flow, encode, model: BodyModelDef, dataset, n_samples=100,
             use_solver=False, views=1, rng_seed=0):
    """Metrics JSON for the dataset.

    encode: callable mapping context_features -> flow context vector.
    Per scene the mode plus n_samples flow draws are scored in one pass
    over the arrays of their PoseBatch; solver mode (optional) refits
    (delta, beta, t) per sample over the first `views` views with
    EVAL_SOLVE, starting from the sampled pose and shape, and reports
    absolute errors from the recovered translation, otherwise the GT
    translation is used (root-aligned and PA metrics are translation-free
    either way).
    A draw whose refinement raises SolverFailure is scored unrefined, as
    without the solver, and counted in summary["solver_failures"].
    Raises ValueError unless n_samples is an integer of at least 0, views
    one of at least 1 that every scene has, the dataset is not empty and
    every view it reads has the model's anchor count.
    """
    check_fields({"n_samples": n_samples}, int)
    check_fields({"views": views}, int, least=1)
    if not len(dataset):
        raise ValueError("dataset must hold at least one scene")
    if not all(views <= len(rec.views) for rec in dataset):
        raise ValueError(f"views must be between 1 and each scene's view count, got {views}")
    for i, rec in enumerate(dataset):
        check_anchor_counts(model, rec.views[:views if use_solver else 1], i)
    rng = np.random.default_rng(rng_seed)
    per = {k: [] for k in ["mpjpe_mode", "mpjpe_min", "pa_mpjpe_mode",
                           "pa_mpjpe_min", "abs_mpjpe_mode", "kp2d_mode"]}
    failures = 0
    for rec in dataset:
        batch = flow.flow_sample(encode(rec.context_features), n_samples, rng,
                                 include_mode=True)
        gt = rec.gt_state
        gt_j = joints_3d(model, gt.pose, gt.shape, gt.translation)
        if use_solver:
            rel, shapes, trans, failed = _refine(model, batch, rec.views[:views], gt.translation)
            failures += failed
        else:
            rel, shapes, trans = batch.rotations, batch.shapes, gt.translation[None]
        world = _world_rotations(model, rel)
        pj = _chain_positions(model, world, rest_joints(model, shapes)) + trans[:, None, :]
        for key, values in (("mpjpe", mpjpe(pj, gt_j)), ("pa_mpjpe", pa_mpjpe(pj, gt_j))):
            mode, mn = _min_and_mode(values)
            per[f"{key}_mode"].append(mode)
            per[f"{key}_min"].append(mn)
        per["abs_mpjpe_mode"].append(float(mpjpe(pj[0], gt_j, root_align=False)))
        px = reproject(model, world[0], shapes[0], trans[0], rec.views[0])
        per["kp2d_mode"].append(kp2d_error(px, rec.gt_anchors[0]))
    summary = {k: float(np.mean(v)) for k, v in per.items()}
    summary["n_samples"] = n_samples
    summary["views"] = views
    summary["use_solver"] = bool(use_solver)
    if use_solver:
        summary["solver_failures"] = failures
    return {"summary": summary, "per_scene": per}


def multi_view_trend(model, dataset, init_sigma_deg=8.0, seed=0):
    """Absolute and root-aligned MPJPE of 1-view vs 2-view solves.

    Stands in for a full trained pipeline: the per-view pose estimates
    are the GT perturbed per joint by init_sigma_deg (playing the role
    of network predictions), and the solver recovers (delta, beta, t)
    from the noisy anchors with TREND_SOLVE.  Returns mean metrics for
    both view counts.  Raises ValueError unless init_sigma_deg is a number
    from 0 to 180: each joint turns by exactly that angle, so more only wraps.
    """
    check_fields({"init_sigma_deg": init_sigma_deg}, float)
    if init_sigma_deg > 180:
        raise ValueError(f"init_sigma_deg must be at most 180, got {init_sigma_deg!r}")
    if not len(dataset):
        raise ValueError("dataset must hold at least one scene")
    rng = np.random.default_rng(seed)
    out = {"abs_1v": [], "abs_2v": [], "rel_1v": [], "rel_2v": []}
    sig = np.deg2rad(init_sigma_deg)
    for rec in dataset:
        if len(rec.views) < 2:
            raise ValueError("dataset must be generated on a 2-view rig")
        gt_j = joints_3d(model, rec.gt_state.pose, rec.gt_state.shape,
                         rec.gt_state.translation)
        pose = as_matrices(rec.gt_state.pose)
        per_view = []
        for v in rec.views:
            axes = rng.normal(size=(model.n_joints, 3))
            noise = exp_matrices(sig * axes / np.linalg.norm(axes, axis=-1, keepdims=True))
            in_view = pose.copy()
            in_view[0] = v.extrinsics_r @ pose[0]          # the root in camera v's frame
            per_view.append(in_view @ noise)
        r1 = solve_multi_view(model, per_view[:1], rec.views[:1], TREND_SOLVE)
        r2 = solve_multi_view(model, per_view, rec.views, TREND_SOLVE)
        for tag, res in (("1v", r1), ("2v", r2)):
            pj = joints_3d(model, res.pose, res.beta, res.translation)
            out[f"abs_{tag}"].append(mpjpe(pj, gt_j, root_align=False))
            out[f"rel_{tag}"].append(mpjpe(pj, gt_j))
    return {k: float(np.mean(v)) for k, v in out.items()}

