"""Linearized weighted least-squares body fitting.

Recovers per-joint rotation corrections, shape coefficients and a
global translation from pixel anchors.  Depth is eliminated with DLT
cross-product rows, each joint's world rotation is corrected by
I + [delta]x about the current estimate, and the resulting linear
system is solved by Cholesky on the normal equations, optionally
relinearizing; each step applies exp(delta) to all joints at once.
The linearization and the residual both pose the anchors with
`body.pose_anchors`.  `solve` stacks every view's rows from one initial
pose in the world frame; `solve_multi_view` starts instead from the
chordal mean of per-view poses whose root is in each camera's frame.

Rotations are matrices throughout: a pose may come in as K Rotations or
as an array (K,3,3), and a SolveResult holds (K,3,3) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ag
from .body import _world_rotations, pose_anchors
from .checks import check_fields
from .rotation import (DegenerateMeanError, DegenerateProjectionError, as_matrices,
                       exp_matrices, special_orthogonalize_matrices)


class UnderdeterminedError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


class DivergenceError(SolverFailure):
    pass


WEIGHT_FLOOR = 1e-6
JITTER = 1e-10


@dataclass
class Observation:
    """One calibrated view of the anchor set.

    anchors_2d: (N_s,2) pixels; laplace_scale: (N_s,) predicted pixel
    uncertainty; aux_weight: (N_s,) extra factor (0 masks an anchor);
    intrinsics: 3x4; extrinsics_r/t: world-to-camera rigid transform
    (identity / zero for a single uncalibrated view).
    """

    anchors_2d: np.ndarray
    laplace_scale: np.ndarray
    aux_weight: np.ndarray
    intrinsics: np.ndarray
    extrinsics_r: np.ndarray = field(default_factory=lambda: np.eye(3))
    extrinsics_t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for f in fields(self):
            try:
                setattr(self, f.name, np.asarray(getattr(self, f.name), float))
            except (TypeError, ValueError) as e:
                raise ValueError(f"{f.name} must hold numbers: {e}")
        n = len(self.anchors_2d) if self.anchors_2d.ndim else 0
        for name, shape in (("anchors_2d", (n, 2)), ("laplace_scale", (n,)),
                            ("aux_weight", (n,)), ("intrinsics", (3, 4)),
                            ("extrinsics_r", (3, 3)), ("extrinsics_t", (3,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, "
                                 f"got {getattr(self, name).shape}")
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not np.allclose(self.intrinsics[2], [0.0, 0.0, 1.0, 0.0]):
            raise ValueError("intrinsics row 3 must be (0,0,1,0)")
        if (self.laplace_scale <= 0).any():
            raise ValueError("laplace_scale must be positive")
        if (self.aux_weight < 0).any():
            raise ValueError("aux_weight must be nonnegative")


@dataclass
class SolveConfig:
    omega_beta: float = 0.0
    gamma: float = 0.0
    beta_prior: np.ndarray | None = None
    max_relinearizations: int = 0

    def __post_init__(self):
        check_fields(vars(self), float, ("omega_beta", "gamma"))
        check_fields(vars(self), int, ("max_relinearizations",))
        if self.beta_prior is not None:
            self.beta_prior = np.asarray(self.beta_prior, float)


@dataclass
class SolveResult:
    delta_vectors: np.ndarray       # (K,3) small-rotation updates, radians
    rotations: np.ndarray           # (K,3,3) corrected per-joint world rotations
    pose: np.ndarray                # (K,3,3) corrected per-joint relative rotations
    beta: np.ndarray
    translation: np.ndarray
    weighted_rms_residual: float
    per_anchor_residuals: np.ndarray
    n_relinearizations: int = 0


def anchor_weights(laplace_scale, aux_weight):
    """w = aux / (scale + floor); a zero aux weight removes the anchor."""
    laplace_scale = np.asarray(laplace_scale, float)
    aux_weight = np.asarray(aux_weight, float)
    if (laplace_scale <= 0).any():
        raise ValueError("laplace_scale must be positive")
    return aux_weight / (laplace_scale + WEIGHT_FLOOR)


# [e_i]x for i = 0, 1, 2: the generators of so(3)
_SO3_GENERATORS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                            [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                            [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _relative_from_world(model, world):
    """Relative rotations (K,3,3) of world rotations (K,3,3): the inverse of
    `body._world_rotations`; the root, joint 0, keeps its world rotation."""
    rel = np.swapaxes(world[np.maximum(model.parents, 0)], -1, -2) @ world
    rel[0] = world[0]
    return rel


def _linearized_anchors(model, world_rot, beta_lin):
    """Anchor positions as an affine map of the unknowns.

    Returns (p0 (A,3), d_delta (A,K,3,3), d_beta (A,S,3)) so that
        P = p0 + sum_k d_delta[:,k] @ delta_k + d_beta . (beta - beta_lin) + t
    for anchors A = model.anchor_indices: p0 and d_beta pose them at beta_lin
    and along each shape direction, d_delta reads the levers L_k of c + sum_k R_k L_k.
    """
    levers = model.anchor_levers[1]                # (1+S,A,K,3)
    n_rest, n_a, k = levers.shape[:3]
    coef = np.concatenate([[1.0], beta_lin])
    posed = pose_anchors(model, world_rot, np.concatenate([coef[None], np.eye(n_rest)[1:]]))
    p0, d_beta = posed[0], np.swapaxes(posed[1:], 0, 1)
    # y_k = R_k L_k(beta_lin), joint k's share of the posed anchors (A,K,3)
    lev = (coef @ levers.reshape(n_rest, -1)).reshape(n_a, k, 3)
    y = np.swapaxes(np.swapaxes(lev, 0, 1) @ np.swapaxes(world_rot, -1, -2), 0, 1)
    # d/d delta of (I + [delta]x) R_k L_k is delta x y_k = -[y_k]x delta
    d_delta = (y @ -_SO3_GENERATORS.reshape(3, 9)).reshape(n_a, k, 3, 3)
    return p0, d_delta, d_beta


def _dlt_rows(obs: Observation, p0, d_delta, d_beta, beta_lin, weights):
    """Weighted DLT rows for one view: returns (J (2A,D), r (2A,)).

    Anchor a at pixel (u,v) gives the rows (u,v) K[2] - K[0:2], which
    vanish on its homogeneous camera-frame point Q = re P + te.
    """
    n_a = len(p0)
    kk = obs.intrinsics
    rows = obs.anchors_2d[:, :, None] * kk[2] - kk[:2]              # (A,2,4)
    m = rows[..., :3] @ obs.extrinsics_r                            # rows on world P
    j_beta = np.einsum("acj,asj->acs", m, d_beta)
    jrows = np.concatenate([np.einsum("acj,akjl->ackl", m, d_delta).reshape(n_a, 2, -1),
                            j_beta, m], axis=2)
    # residual convention: J x = r at the solution, with beta measured
    # absolutely (fold the lin point into the rhs)
    q0 = p0 @ obs.extrinsics_r.T + obs.extrinsics_t
    rhs = -(np.einsum("aci,ai->ac", rows[..., :3], q0) + rows[..., 3]) + j_beta @ beta_lin
    return ((weights[:, None, None] * jrows).reshape(2 * n_a, -1),
            (weights[:, None] * rhs).reshape(-1))


def assemble_system(model, world, beta_lin_point, observations, cfg: SolveConfig):
    """Normal equations for the stacked weighted system, linearized about
    the world rotations (K,3,3).

    Unknown layout: (delta_1..delta_K, beta, t).  Returns (A, b) with
    A = J^T J and b = J^T r.
    """
    if not observations:
        raise ValueError("need at least one observation")
    k, s = model.n_joints, model.n_shape
    dim = 3 * k + s + 3
    beta_lin = np.asarray(beta_lin_point, float)
    p0, d_delta, d_beta = _linearized_anchors(model, world, beta_lin)

    blocks_j, blocks_r = [], []
    n_data_rows = 0
    for obs in observations:
        if len(obs.anchors_2d) != len(p0):
            raise ValueError(f"a view has {len(obs.anchors_2d)} anchors, "
                             f"the model {len(p0)}")
        wts = anchor_weights(obs.laplace_scale, obs.aux_weight)
        j, r = _dlt_rows(obs, p0, d_delta, d_beta, beta_lin, wts)
        keep = np.repeat(wts > 0, 2)
        blocks_j.append(j[keep])
        blocks_r.append(r[keep])
        n_data_rows += int(keep.sum())

    n_reg = (s if cfg.omega_beta > 0 else 0) + (3 * k if cfg.gamma > 0 else 0)
    if n_data_rows + n_reg < dim:
        raise UnderdeterminedError(
            f"{n_data_rows + n_reg} rows for {dim} unknowns")

    jmat = np.vstack(blocks_j)
    a, b = jmat.T @ jmat, jmat.T @ np.concatenate(blocks_r)
    # each regularizer's rows are a scaled identity: its weight adds to a diagonal
    if cfg.omega_beta > 0:
        prior = np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior
        diag = np.arange(3 * k, 3 * k + s)
        a[diag, diag] += cfg.omega_beta
        b[diag] += cfg.omega_beta * prior
    if cfg.gamma > 0:
        diag = np.arange(3 * k)
        a[diag, diag] += cfg.gamma
    return a, b


def _chol_solve(a, b):
    from scipy.linalg import cho_factor, cho_solve   # ~50 ms to import: only solves pay it
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        try:
            factor = cho_factor(a + JITTER * np.eye(len(a)), lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise SolverFailure("normal equations not SPD even with jitter")
    return cho_solve(factor, b, check_finite=False)


def reproject(model, world_rot, beta, translation, obs: Observation):
    """Pixel positions of the anchors under the given state."""
    pts = pose_anchors(model, world_rot, np.concatenate([[1.0], beta])) + translation
    cam = pts @ obs.extrinsics_r.T + obs.extrinsics_t
    hom = np.concatenate([cam, np.ones((len(cam), 1))], axis=1)
    proj = hom @ obs.intrinsics.T
    return proj[:, :2] / proj[:, 2:3]


def _residual_report(model, world_rot, beta, t, observations):
    per = []
    wacc, sqacc = 0.0, 0.0
    for obs in observations:
        wts = anchor_weights(obs.laplace_scale, obs.aux_weight)
        px = reproject(model, world_rot, beta, t, obs)
        err = np.linalg.norm(px - obs.anchors_2d, axis=1)
        per.append(err)
        sqacc += float((wts * err ** 2).sum())
        wacc += float(wts.sum())
    rms = np.sqrt(sqacc / max(wacc, 1e-30))
    return rms, np.concatenate(per)


def _pose_matrices(model, pose):
    """A pose's matrices (K,3,3), checked to hold one rotation per joint."""
    mats = as_matrices(pose)
    if mats.shape != (model.n_joints, 3, 3):
        raise ValueError(f"pose must have shape {(model.n_joints, 3, 3)}, "
                         f"got {mats.shape}")
    return mats


def solve(model, pose_init, observations, cfg: SolveConfig) -> SolveResult:
    """Shared (delta, beta, t) over the stacked views from a world-frame pose."""
    k, s = model.n_joints, model.n_shape
    beta_lin = np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior
    if beta_lin.shape != (s,):
        raise ValueError(f"beta_prior must have shape ({s},), got {beta_lin.shape}")
    world = _world_rotations(model, _pose_matrices(model, pose_init))
    prev_rms = np.inf
    increases = 0
    total_delta = np.zeros((k, 3))
    n_lin = 0
    while True:
        a, b = assemble_system(model, world, beta_lin, observations, cfg)
        x = _chol_solve(a, b)
        delta = x[:3 * k].reshape(k, 3)
        beta = x[3 * k:3 * k + s]
        t = x[3 * k + s:]
        world_new = exp_matrices(delta) @ world
        rms, per = _residual_report(model, world_new, beta, t, observations)
        total_delta += delta
        world = world_new
        if rms > prev_rms:
            increases += 1
            if increases >= 2:
                raise DivergenceError("residual increased on two consecutive relinearizations")
        else:
            increases = 0
        prev_rms = rms
        if n_lin >= cfg.max_relinearizations or np.abs(delta).max() < 1e-6:
            break
        n_lin += 1
        beta_lin = beta
    return SolveResult(
        delta_vectors=total_delta,
        rotations=world,
        pose=_relative_from_world(model, world),
        beta=beta,
        translation=t,
        weighted_rms_residual=rms,
        per_anchor_residuals=per,
        n_relinearizations=n_lin,
    )


def solve_single_view(model, pose_init, obs: Observation, cfg: SolveConfig) -> SolveResult:
    return solve(model, pose_init, [obs], cfg)


def solve_multi_view(model, per_view_poses, views, cfg: SolveConfig) -> SolveResult:
    """Shared (delta, beta, t) over stacked views from per-view poses.

    Each pose's root rotation is in its view's camera frame: the transposed
    extrinsic rotation carries it into the world frame (non-root joints are
    parent-relative), and the solve starts from the per-joint chordal mean.
    """
    if not views:
        raise ValueError("need at least one view")
    if len(per_view_poses) != len(views):
        raise ValueError("one pose set per view required")
    mats = np.stack([_pose_matrices(model, p) for p in per_view_poses])    # (V,K,3,3)
    mats[:, 0] = np.swapaxes(np.stack([v.extrinsics_r for v in views]), -1, -2) @ mats[:, 0]
    if len(views) == 1:
        return solve(model, mats[0], views, cfg)
    try:
        pose_init = special_orthogonalize_matrices(mats.sum(axis=0))
    except DegenerateProjectionError as e:
        raise DegenerateMeanError("summed rotations of a joint are rank deficient") from e
    return solve(model, pose_init, views, cfg)


def laplacian_nll(pred, scale, gt):
    """Mean Laplace negative log-likelihood, log(2w) + |err|_1 / w.

    Accepts tape nodes for pred/scale; gt is plain data.
    """
    gt = np.asarray(gt, float)
    sval = ag.as_array(scale)
    if (sval <= 0).any():
        raise ValueError("scale must be positive")
    l1 = ag.reduce_sum(ag.absolute(pred - gt), axis=1)
    per = ag.log(2.0 * scale) + l1 / scale
    return ag.mean(per)
