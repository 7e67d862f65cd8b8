"""Linearized weighted least-squares body fitting.

Recovers per-joint rotation corrections, shape coefficients and a
global translation from pixel anchors.  Depth is eliminated with DLT
cross-product rows, each joint's world rotation is corrected by
I + [delta]x about the current estimate, and the resulting linear
system is solved by Cholesky (LAPACK potrf/potrs) on the normal
equations, optionally relinearizing; each step applies exp(delta) to all
joints at once.  An `Observation` is a read-only value: its weighted DLT
rows are built at its first solve and shared by the many solves of its
draws (`Observation.view_rows`; `_dlt_constants` stacks a solve's views;
`assemble_system` adds its config's regularizers).  A changed view is a
new `Observation`, made with `dataclasses.replace`.
A solve poses the anchor table c + sum_k R_k L_k of `body.pose_anchors`
once per state: the residual after a step and the next linearization
share it.  `solve` stacks every view's rows from one initial pose in the
world frame; `solve_multi_view` starts instead from the chordal mean of
per-view poses whose root is in each camera's frame.

Rotations are matrices throughout: a pose may come in as K Rotations or
as an array (K,3,3), and a SolveResult holds (K,3,3) arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ag
from .body import _read_only_fields, _world_rotations, pose_anchors
from .checks import check_array, check_fields, check_numbers
from .rotation import as_matrices, exp_matrices, rotation_mean


class UnderdeterminedError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


class DivergenceError(SolverFailure):
    pass


WEIGHT_FLOOR = 1e-6
JITTER = 1e-10


@dataclass(frozen=True)
class Observation:
    """One calibrated view of the anchor set.

    anchors_2d: (N_s,2) pixels; laplace_scale: (N_s,) predicted pixel
    uncertainty; aux_weight: (N_s,) extra factor (0 masks an anchor; None
    gives every anchor 1);
    intrinsics: 3x4; extrinsics_r/t: world-to-camera rigid transform
    (identity / zero for a single uncalibrated view).

    A read-only value: it checks its six arrays once and holds read-only
    copies of them, so its weighted DLT rows (`view_rows`) are built once
    and serve every solve.  A changed view is a new Observation, made with
    `dataclasses.replace`, which runs every check again.
    """

    anchors_2d: np.ndarray
    laplace_scale: np.ndarray
    aux_weight: np.ndarray
    intrinsics: np.ndarray
    extrinsics_r: np.ndarray = field(default_factory=lambda: np.eye(3))
    extrinsics_t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        set_field = functools.partial(object.__setattr__, self)
        set_field("anchors_2d", check_array("anchors_2d", self.anchors_2d, (None, 2)))
        n = len(self.anchors_2d)
        if self.aux_weight is None:
            set_field("aux_weight", np.ones(n))
        for name, shape in (("laplace_scale", (n,)), ("aux_weight", (n,)), ("intrinsics", (3, 4)),
                            ("extrinsics_r", (3, 3)), ("extrinsics_t", (3,))):
            set_field(name, check_array(name, getattr(self, name), shape))
        if not np.allclose(self.intrinsics[2], [0.0, 0.0, 1.0, 0.0]):
            raise ValueError("intrinsics row 3 must be (0,0,1,0)")
        if (self.laplace_scale <= 0).any():
            raise ValueError("laplace_scale must be positive")
        if (self.aux_weight < 0).any():
            raise ValueError("aux_weight must be nonnegative")
        _read_only_fields(self)

    @functools.cached_property
    def view_rows(self) -> _ViewRows:
        """This view's weighted DLT rows, built at the first solve."""
        return _view_rows(self)


@dataclass
class SolveConfig:
    omega_beta: float = 0.0
    gamma: float = 0.0
    beta_prior: np.ndarray | None = None
    max_relinearizations: int = 0

    def __post_init__(self):
        check_fields(vars(self), float, ("omega_beta", "gamma"))
        check_fields(vars(self), int, ("max_relinearizations",))
        # finiteness is solve's check, against the model's shape count
        if self.beta_prior is not None:
            self.beta_prior = check_numbers("beta_prior", self.beta_prior, (None,))


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


def _relative_from_world(model, world):
    """Relative rotations (K,3,3) of world rotations (K,3,3): the inverse of
    `body._world_rotations`; the root, joint 0, keeps its world rotation."""
    rel = np.swapaxes(world[np.maximum(model.parents, 0)], -1, -2) @ world
    rel[0] = world[0]
    return rel


class _ViewRows(NamedTuple):
    """One view's kept, weighted DLT rows, or several stacked.  Row r reads anchor
    `anchor[r]`; at its world point q, m[r] . q + const[r] vanishes on the pixel."""
    anchor: np.ndarray      # (R,) anchor of each kept row
    m: np.ndarray           # (R,3) weighted row on the world point
    m_cross: np.ndarray     # (R,3,3) [m]x, so that y @ [m]x = y x m
    const: np.ndarray       # (R,)
    weights: np.ndarray     # (A,) anchor weights for the residual; stacked, one per view
    weight_sum: float


def _view_rows(obs) -> _ViewRows:
    """Anchor a at pixel (u,v) gives the rows (u,v) K[2] - K[0:2], which
    vanish on its homogeneous camera-frame point Q = re P + te: on the
    world point P they read m = rows[:3] re and const = rows[:3] te + rows[3].
    Rows of anchors with zero weight are dropped.  The arrays are read-only."""
    wts = anchor_weights(obs.laplace_scale, obs.aux_weight)
    keep = np.flatnonzero(wts > 0)
    kk = obs.intrinsics
    rows = wts[keep, None, None] * (obs.anchors_2d[keep, :, None] * kk[2] - kk[:2])
    m = (rows[..., :3] @ obs.extrinsics_r).reshape(-1, 3)
    m_cross = np.zeros((len(m), 3, 3))
    m_cross[:, [2, 0, 1], [1, 2, 0]] = m
    m_cross[:, [1, 2, 0], [2, 0, 1]] = -m
    view = _ViewRows(np.repeat(keep, 2), m, m_cross,
                     (rows[..., :3] @ obs.extrinsics_t + rows[..., 3]).reshape(-1),
                     wts, float(wts.sum()))
    for a in view[:5]:
        a.flags.writeable = False
    return view


def check_anchor_counts(model, views, scene=None):
    """ValueError naming the first of `views` (with its index in `scene`,
    when given) whose anchor count is not the model's."""
    n_a = len(model.anchor_indices)
    for j, obs in enumerate(views):
        if len(obs.anchors_2d) != n_a:
            where = "a view" if scene is None else f"scene {scene} view {j}"
            raise ValueError(f"{where} has {len(obs.anchors_2d)} anchors, the model {n_a}")


def _dlt_constants(model, observations) -> _ViewRows:
    """What a solve holds fixed: its views' kept DLT rows (`Observation.view_rows`,
    built once per view), one view's own or several stacked, weights per view."""
    if not observations:
        raise ValueError("need at least one observation")
    check_anchor_counts(model, observations)
    views = [obs.view_rows for obs in observations]
    if len(views) == 1:
        return views[0]
    *cols, weights, weight_sums = zip(*views)
    return _ViewRows(*map(np.concatenate, cols), weights, sum(weight_sums))


def _linearized_anchors(model, world_rot, beta_lin):
    """The joint shares y_k = R_k L_k(beta_lin) (K,A,3) of the anchors
    c + sum_k R_k L_k posed at shape beta_lin, L the levers of
    `anchor_levers`.  Correcting R_k by I + [delta_k]x moves them by
    delta_k x y_k, to first order."""
    levers = model.anchor_levers[1]                # (1+S,A,K,3)
    n_rest, n_a, k = levers.shape[:3]
    lev = (np.concatenate([[1.0], beta_lin]) @ levers.reshape(n_rest, -1)).reshape(n_a, k, 3)
    return np.swapaxes(lev, 0, 1) @ np.swapaxes(world_rot, -1, -2)


def _dlt_rows(model, world, beta_lin, table, rows: _ViewRows):
    """The weighted DLT rows (J (R,D), r (R,)) linearized about the world
    rotations (K,3,3) at shape beta_lin; `table` (1+S,A,3) holds the anchors
    of the rest stack [template; shape basis] posed by `world`.  Unknown
    layout: (delta_1..delta_K, beta, t), beta measured absolutely."""
    # m . (I + [delta]x) y = m . y + delta . (y x m)
    y = np.take(_linearized_anchors(model, world, beta_lin), rows.anchor, axis=1)
    j_delta = (np.swapaxes(y, 0, 1) @ rows.m_cross).reshape(len(rows.m), -1)
    # m . q for each posed rest row: the template column and the beta columns
    mq = (rows.m[:, None] @ np.take(table, rows.anchor, axis=1).transpose(1, 2, 0))[:, 0]
    # the anchors are linear in beta, so beta_lin drops out of the rhs
    return np.concatenate([j_delta, mq[:, 1:], rows.m], axis=1), -(mq[:, 0] + rows.const)


def assemble_system(model, world, beta_lin, table, rows: _ViewRows, cfg: SolveConfig):
    """Normal equations (A, b) of `_dlt_rows` plus the regularizers of cfg, each
    a scaled identity on its unknowns: gamma adds to the delta diagonal,
    omega_beta to the beta diagonal, and omega_beta * beta_prior to b."""
    k, s = model.n_joints, model.n_shape
    jmat, r = _dlt_rows(model, world, beta_lin, table, rows)
    a, b = jmat.T @ jmat, jmat.T @ r
    diag = a.reshape(-1)[::len(a) + 1]      # a view: the product is C-contiguous
    diag[:3 * k] += cfg.gamma
    diag[3 * k:3 * k + s] += cfg.omega_beta
    if cfg.beta_prior is not None:
        b[3 * k:3 * k + s] += cfg.omega_beta * cfg.beta_prior
    return a, b


@functools.cache
def _lapack():
    # ~50 ms to import: only solves pay it, once
    from scipy.linalg.lapack import dpotrf, dpotrs
    return dpotrf, dpotrs


def _chol_solve(a, b):
    dpotrf, dpotrs = _lapack()
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        factor, info = dpotrf(a + JITTER * np.eye(len(a)), lower=1, clean=0)
        if info > 0:
            raise SolverFailure("normal equations not SPD even with jitter")
    return dpotrs(factor, b, lower=1)[0]


def project(intrinsics, extrinsics_r, extrinsics_t, points):
    """Pinhole projection of world points (N,3) to pixels (N,2) by 3x4 intrinsics;
    points at or behind the camera plane are not checked for."""
    cam = np.asarray(points, float) @ np.asarray(extrinsics_r, float).T + extrinsics_t
    hom = np.concatenate([cam, np.ones((len(cam), 1))], axis=1)
    uvw = hom @ np.asarray(intrinsics, float).T
    return uvw[:, :2] / uvw[:, 2:3]


def reproject(model, world_rot, beta, translation, obs: Observation):
    """Pixel positions of the anchors under the given state."""
    return project(obs.intrinsics, obs.extrinsics_r, obs.extrinsics_t,
                   pose_anchors(model, world_rot, np.concatenate([[1.0], beta])) + translation)


def _residual_report(table, beta, t, observations, rows: _ViewRows):
    # [1, beta] @ table is `pose_anchors` at shape beta, done on its posed table
    pts = (np.concatenate([[1.0], beta])[None] @ table.reshape(len(table), -1)).reshape(-1, 3) + t
    per = []
    for obs in observations:
        d = project(obs.intrinsics, obs.extrinsics_r, obs.extrinsics_t, pts) - obs.anchors_2d
        d *= d
        per.append(np.sqrt(d[:, 0] + d[:, 1]))      # np.linalg.norm(axis=1)'s arithmetic
    weights = rows.weights if len(per) > 1 else [rows.weights]
    sq = sum(float((w * err ** 2).sum()) for w, err in zip(weights, per))
    return (np.sqrt(sq / max(rows.weight_sum, 1e-30)),
            per[0] if len(per) == 1 else np.concatenate(per))


def _pose_matrices(model, pose, name):
    """A pose's matrices (K,3,3), checked to hold one finite rotation per joint."""
    return check_array(name, as_matrices(pose), (model.n_joints, 3, 3))


# an overflow surfaces once, as the non-finite step check's SolverFailure
@np.errstate(over="ignore", invalid="ignore")
def solve(model, pose_init, observations, cfg: SolveConfig) -> SolveResult:
    """Shared (delta, beta, t) over the stacked views from a world-frame pose."""
    k, s = model.n_joints, model.n_shape
    beta_lin = np.zeros(s) if cfg.beta_prior is None else cfg.beta_prior
    beta_lin = check_array("beta_prior", beta_lin, (s,))
    world = _world_rotations(model, _pose_matrices(model, pose_init, "pose_init"))
    rows = _dlt_constants(model, observations)
    n_reg = (s if cfg.omega_beta > 0 else 0) + (3 * k if cfg.gamma > 0 else 0)
    if len(rows.m) + n_reg < 3 * k + s + 3:
        raise UnderdeterminedError(f"{len(rows.m) + n_reg} rows for {3 * k + s + 3} unknowns")
    # each state's posed anchor table serves its residual and the next linearization
    stack = np.eye(s + 1)
    table = pose_anchors(model, world, stack)
    prev_rms = np.inf
    increases = 0
    total_delta = np.zeros((k, 3))
    n_lin = 0
    while True:
        x = _chol_solve(*assemble_system(model, world, beta_lin, table, rows, cfg))
        if not np.isfinite(x).all():
            raise SolverFailure(f"non-finite step at linearization {n_lin}")
        delta = x[:3 * k].reshape(k, 3)
        beta = x[3 * k:3 * k + s]
        t = x[3 * k + s:]
        world = exp_matrices(delta) @ world
        table = pose_anchors(model, world, stack)
        rms, per = _residual_report(table, beta, t, observations, rows)
        total_delta += delta
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
    return SolveResult(delta_vectors=total_delta, rotations=world,
                       pose=_relative_from_world(model, world), beta=beta, translation=t,
                       weighted_rms_residual=rms, per_anchor_residuals=per,
                       n_relinearizations=n_lin)


def solve_single_view(model, pose_init, obs: Observation, cfg: SolveConfig) -> SolveResult:
    return solve(model, pose_init, [obs], cfg)


def solve_multi_view(model, per_view_poses, views, cfg: SolveConfig) -> SolveResult:
    """Shared (delta, beta, t) over stacked views from per-view poses.

    Each pose's root rotation is in its view's camera frame: the transposed
    extrinsic rotation carries it into the world frame (non-root joints are
    parent-relative), and the solve starts from their `rotation_mean`.
    """
    if not views:
        raise ValueError("need at least one view")
    if len(per_view_poses) != len(views):
        raise ValueError("one pose set per view required")
    mats = np.stack([_pose_matrices(model, p, "per_view_poses")
                     for p in per_view_poses])                              # (V,K,3,3)
    mats[:, 0] = np.swapaxes(np.stack([v.extrinsics_r for v in views]), -1, -2) @ mats[:, 0]
    if len(views) == 1:
        return solve(model, mats[0], views, cfg)
    return solve(model, rotation_mean(mats), views, cfg)


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
