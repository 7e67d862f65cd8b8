"""Conditional normalizing flow on SO(3)^K built from Möbius couplings and
conditioner-driven rotation layers.

Direction convention: the analytic Möbius maps run pose -> base, which is the
direction log-probabilities (and therefore training gradients) need. Sampling
inverts each coupling from the weighted mean of its components' closed-form
roots (the root when they coincide) by Newton steps safeguarded by bisection,
with no gradient. Each root's Newton slope is the coupling's forward Jacobian
factor, so `flow_sample` scores its draws in the same pass, as one `PoseBatch`.

A pass over N pose rows takes the P rows `joint_context_rows` built (P divides
N), and pose row r reads context row r mod P: the couplings see the rows
repeated to N, the rotation layers the P rows themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .checks import check_array, check_fields
from .distributions import (ProjectedIsoGaussian, pig_logpdf_batch, pig_logpdf_from_qdot,
                            pig_sample_batch)
from .nets import ParamStore, mlp_apply, mlp_init
from .rotation import (Rotation, as_matrices, cross3, matrix_to_quat, matrix_to_quats,
                       quat_to_matrices)

__all__ = ["FlowConfig", "FlowModel", "PoseSample", "PoseBatch", "NonConvergenceError"]

OMEGA_MARGIN = 1e-3
INVERSE_EPS = 1e-8       # radians of residual angle
INVERSE_MAX_ITER = 64


class NonConvergenceError(RuntimeError):
    pass


def _constrain_omega_batch(out, k):
    """Map each omega of a conditioner output into the open unit ball, to
    radius tanh|o| (1 - OMEGA_MARGIN). Columns [0,k), [k,2k) and [2k,3k) of
    ``out`` hold x, y and z (B,k). One tape node with one parent, ``out``;
    later columns get no gradient."""
    a = ag.as_array(out)
    o = [a[:, :k], a[:, k:2 * k], a[:, 2 * k:3 * k]]
    n = np.sqrt(o[0] * o[0] + o[1] * o[1] + o[2] * o[2] + 1e-30)
    t = np.tanh(n)
    s = t * ((1.0 - OMEGA_MARGIN) / n)

    def vjp(gx, gy, gz):
        # ds/dn = (1-m)(1-tanh^2)/n - s/n, and dn/do_i = o_i/n
        g_s = gx * o[0] + gy * o[1] + gz * o[2]
        g_n = g_s * ((1.0 - OMEGA_MARGIN) * (1.0 - t * t) - s) / n
        g_out = np.zeros_like(a)
        for i, (g, oc) in enumerate(zip((gx, gy, gz), o)):
            g_out[:, i * k:(i + 1) * k] = g * s + g_n * oc / n
        return (g_out,)

    return ag.fused((o[0] * s, o[1] * s, o[2] * s), (out,), vjp)


def _mobius_fwd_batch(held, moving, ox, oy, oz, w):
    """Convex-combination Möbius step. All rows independent.

    held, moving: (B,3) orthonormal pairs; o*: (B,k) constrained omegas;
    w: (B,k) simplex weights. Returns (moved (B,3), logdet (B,)).

    theta_j = 2*arg(1 + c_j) with c_j the omega projection onto the
    (moving, u3) plane, and the angle derivative of the full map is
    (1-|c_j|^2)/|1+c_j|^2, both evaluated at the input point. On the tape
    the step is one node with the analytic VJP.
    """
    hv, mv, wv = ag.as_array(held), ag.as_array(moving), ag.as_array(w)
    o = [ag.as_array(c) for c in (ox, oy, oz)]
    u3 = cross3(mv, hv)
    cre = o[0] * mv[:, 0:1] + o[1] * mv[:, 1:2] + o[2] * mv[:, 2:3]
    cim = o[0] * u3[:, 0:1] + o[1] * u3[:, 1:2] + o[2] * u3[:, 2:3]
    one_re = 1.0 + cre
    theta_j = 2.0 * np.arctan2(cim, one_re)
    denom = one_re * one_re + cim * cim
    d_j = (1.0 - (cre * cre + cim * cim)) / denom
    theta = (wv * theta_j).sum(axis=1, keepdims=True)
    dsum = (wv * d_j).sum(axis=1)
    logdet = ag.log(dsum)
    cos, sin = np.cos(theta), np.sin(theta)
    moved = cos * mv + sin * u3

    def vjp(g_moved, g_logdet):
        g_theta = (g_moved * (cos * u3 - sin * mv)).sum(axis=1, keepdims=True)
        g_d = (g_logdet / dsum)[:, None]
        gt = 2.0 * g_theta * wv / denom
        gd = 2.0 * g_d * wv / denom
        g_cre = -gt * cim - gd * (cre + one_re * d_j)
        g_cim = gt * one_re - gd * cim * (1.0 + d_j)
        g_mv = cos * g_moved + np.stack([(g_cre * oc).sum(axis=1) for oc in o], axis=1)
        g_u3 = sin * g_moved + np.stack([(g_cim * oc).sum(axis=1) for oc in o], axis=1)
        g_o = [g_cre * mv[:, i:i + 1] + g_cim * u3[:, i:i + 1] for i in range(3)]
        return (cross3(g_u3, mv), g_mv + cross3(hv, g_u3), *g_o,
                g_theta * theta_j + g_d * d_j)

    return ag.fused((moved, logdet), (held, moving, ox, oy, oz, w), vjp)


def _mobius_inv_batch(moved, held, ox, oy, oz, w):
    """Inverse of the convex Möbius step (numpy arrays only).

    Row by row it solves h(M) = M + sum_j w_j 2 arg(1 + c_j e^{-iM}) = 0
    for the angle M that turns moved back into moving.  h rises from
    h(-pi) < 0 to h(pi) > 0 with slope dh/dM = sum_j w_j d_j > 0, the d_j of
    the forward log-determinant, so the root is unique and bracketed.  One
    component's term, 2 arg(e^{iM} + c_j) - M, vanishes where e^{iM} =
    (1 - c_j) / (1 - conj c_j), so the iteration starts at the weighted mean
    sum_j w_j 2 arg(1 - c_j): the root itself when the components coincide.
    For distinct ones each iteration takes the Newton step where it lands
    inside the bracket and is shorter than half the row's previous step,
    and bisects otherwise (rtsafe, Numerical Recipes §9.4) until |h| < INVERSE_EPS.

    Returns (moving, per-row iteration counts, log slope at each root): the
    last is the forward log-determinant of the step at the returned point."""
    moved = np.asarray(moved, float)
    held = np.asarray(held, float)
    u3 = cross3(moved, held)
    c0re = ox * moved[:, 0:1] + oy * moved[:, 1:2] + oz * moved[:, 2:3]
    c0im = ox * u3[:, 0:1] + oy * u3[:, 1:2] + oz * u3[:, 2:3]
    n = moved.shape[0]
    iters, root, root_slope = np.zeros(n, dtype=int), np.zeros(n), np.ones(n)
    # the working arrays hold only the rows still iterating
    x = (w * 2.0 * np.arctan2(-c0im, 1.0 - c0re)).sum(axis=1)
    rows, last = np.arange(n), np.full(n, 2.0 * np.pi)
    lo, hi = np.full(n, -np.pi), np.full(n, np.pi)
    for it in range(1, INVERSE_MAX_ITER + 1):
        cm, sm = np.cos(x)[:, None], np.sin(x)[:, None]
        cre = c0re * cm + c0im * sm      # c0 * exp(-i x)
        cim = c0im * cm - c0re * sm
        one_re = 1.0 + cre
        h = (w * 2.0 * np.arctan2(cim, one_re)).sum(axis=1) + x
        slope = (w * (1.0 - (cre * cre + cim * cim)) / (one_re * one_re + cim * cim)).sum(axis=1)
        conv = np.abs(h) < INVERSE_EPS
        if conv.all():
            iters[rows], root[rows], root_slope[rows] = it, x, slope
            break
        if conv.any():
            hit, go = rows[conv], ~conv
            iters[hit], root[hit], root_slope[hit] = it, x[conv], slope[conv]
            rows, x, h, slope, lo, hi, last, c0re, c0im, w = (
                v[go] for v in (rows, x, h, slope, lo, hi, last, c0re, c0im, w))
        neg = h < 0
        lo = np.where(neg, x, lo)
        hi = np.where(neg, hi, x)
        step = h / slope
        newton = x - step
        take = (newton > lo) & (newton < hi) & (np.abs(step) < 0.5 * last)
        nxt = np.where(take, newton, 0.5 * (lo + hi))
        last = np.abs(nxt - x)
        x = nxt
    else:
        bad = (~np.isfinite(c0re + c0im + w)).any(axis=1).sum()
        raise NonConvergenceError(f"Möbius inverse: {rows.size} of {n} rows missed tolerance, "
                                  f"{bad} of them with a non-finite coefficient or weight")
    moving = moved * np.cos(root)[:, None] + u3 * np.sin(root)[:, None]
    return moving, iters, np.log(root_slope)


def joint_context_rows(flow, pdict, ctx):
    """Per-(scene, joint) conditioner rows from per-scene contexts (B, C):
    row b*K + j is [ctx_b, embed_j]."""
    k = flow.cfg.n_joints
    b = ag.as_array(ctx).shape[0]
    return ag.concat([ag.gather_rows(ctx, np.repeat(np.arange(b), k)),
                      ag.gather_rows(pdict["embed"], np.tile(np.arange(k), b))], axis=1)


def _context_rows(ctx, n):
    """n conditioner rows, row r being row r mod P of ctx (P,C); ctx itself when P = n."""
    p = len(ag.as_array(ctx))
    return ctx if p == n else ag.gather_rows(ctx, np.arange(n) % p)


@dataclass
class FlowConfig:
    n_joints: int
    context_dim: int
    shape_dim: int
    k_transforms: int = 16
    n_sets: int = 4          # coupling set + rotation layer pairs
    channels: int = 256
    blocks: int = 2
    embed_dim: int = 8
    kappa: float = 2.0

    def __post_init__(self):
        check_fields(vars(self), int, ("n_joints", "k_transforms", "n_sets", "channels"), 1)
        check_fields(vars(self), int, ("context_dim", "shape_dim", "blocks", "embed_dim"))
        check_fields(vars(self), float, ("kappa",), above=True)


@dataclass(eq=False)
class PoseSample:
    joint_rotations: list
    shape: np.ndarray
    log_prob: float


@dataclass(frozen=True, eq=False)
class PoseBatch:
    """N flow draws for one context, as arrays: relative rotation matrices
    (N,K,3,3), shapes (N,S) and total log-densities (N,).

    Iterated, it yields each draw as a PoseSample of Rotations, all built from
    one `matrix_to_quats` call; each Rotation is a row of that read-only buffer,
    so a write to one draw's quaternion raises.
    """

    rotations: np.ndarray
    shapes: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self):
        for a in (self.rotations, self.shapes, self.log_probs):
            a.setflags(write=False)

    def __len__(self):
        return len(self.log_probs)

    def __iter__(self):
        q = matrix_to_quats(self.rotations.reshape(-1, 3, 3))
        q.setflags(write=False)
        for qs, shape, log_prob in zip(q.reshape(*self.rotations.shape[:2], 4), self.shapes,
                                       self.log_probs):
            yield PoseSample([Rotation._of_canonical(qi) for qi in qs], shape.copy(),
                             float(log_prob))


_EYE9 = np.eye(3).ravel()


class FlowModel:
    """All learnable parameters of the conditional flow plus its shape head.

    Conditioners are shared across joints; joint identity enters through a
    learned per-joint embedding concatenated to the context vector.
    """

    def __init__(self, cfg: FlowConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params = ParamStore()
        ctx_e = cfg.context_dim + cfg.embed_dim
        self.params.add("embed", 0.1 * rng.normal(size=(cfg.n_joints, cfg.embed_dim)))
        d_out = 4 * cfg.k_transforms
        for i in range(cfg.n_sets):
            mlp_init(self.params, f"cpl{i}a", 3 + ctx_e, d_out, cfg.channels, cfg.blocks, rng)
            mlp_init(self.params, f"cpl{i}b", 3 + ctx_e, d_out, cfg.channels, cfg.blocks, rng)
            mlp_init(self.params, f"rot{i}", ctx_e, 9, cfg.channels, cfg.blocks, rng,
                     final_bias=_EYE9)
        mlp_init(self.params, "head_shape", cfg.context_dim, 2 * cfg.shape_dim,
                 cfg.channels, cfg.blocks, rng)
        self.base = ProjectedIsoGaussian(Rotation.identity(), cfg.kappa)

    # ---- parameter access -------------------------------------------------
    def param_values(self):
        return self.params.values()

    def _context(self, context):
        """One context as a float vector of the configured size, checked finite."""
        return check_array("context", context, (self.cfg.context_dim,))

    def shape_params(self, p, ctx):
        """The shape head's means (B,S) and log-stds (B,S), clamped to [-6, 6], for
        contexts ctx (B,C): tape nodes when p holds leaves, arrays otherwise."""
        out = mlp_apply(p, "head_shape", ctx, self.cfg.blocks)
        d = self.cfg.shape_dim
        return out[:, :d], ag.clip(out[:, d:], -6.0, 6.0)

    # ---- conditioners ------------------------------------------------------
    def _coupling_cond(self, p, name, held, ctx):
        k = self.cfg.k_transforms
        out = mlp_apply(p, name, ag.concat([held, ctx], axis=1), self.cfg.blocks)
        ox, oy, oz = _constrain_omega_batch(out, k)
        return ox, oy, oz, ag.softmax(out[:, 3 * k:], axis=1)

    def _rotation_q(self, p, i, ctx):
        out = mlp_apply(p, f"rot{i}", ctx, self.cfg.blocks)
        return ag.special_orthogonalize_op(out)  # (B,9) rows of rotations

    def rotation_qs(self, p, ctx):
        """Every rotation layer's Q (P,9), in layer order, for P conditioner rows
        ctx: tape nodes when p holds leaves, arrays otherwise."""
        return [self._rotation_q(p, i, ctx) for i in range(self.cfg.n_sets)]

    # ---- layer maps (pose -> base is "forward") ----------------------------
    def _coupling_forward(self, p, i, u1, u2, ctx):
        ox, oy, oz, w = self._coupling_cond(p, f"cpl{i}a", u1, ctx)
        u2n, ld_a = _mobius_fwd_batch(u1, u2, ox, oy, oz, w)
        ox, oy, oz, w = self._coupling_cond(p, f"cpl{i}b", u2n, ctx)
        u1n, ld_b = _mobius_fwd_batch(u2n, u1, ox, oy, oz, w)
        return u1n, u2n, ld_a + ld_b

    def _coupling_inverse(self, p, i, u1, u2, ctx):
        ox, oy, oz, w = self._coupling_cond(p, f"cpl{i}b", u2, ctx)
        u1p, _, ld_b = _mobius_inv_batch(u1, u2, ox, oy, oz, w)
        ox, oy, oz, w = self._coupling_cond(p, f"cpl{i}a", u1p, ctx)
        u2p, _, ld_a = _mobius_inv_batch(u2, u1p, ox, oy, oz, w)
        return u1p, u2p, ld_a + ld_b

    @staticmethod
    def _apply_q(q9, u, transpose=False):
        """Rows of u (B,3) times Q (or Q^T), row r taking its rotation from
        row r % P of q9 (P,9); one tape node."""
        q = ag.as_array(q9).reshape(-1, 3, 3)
        if transpose:
            q = q.transpose(0, 2, 1)
        uv = ag.as_array(u).reshape(-1 if len(q) else 0, len(q), 3)
        out = q[:, :, 0] * uv[..., 0:1] + q[:, :, 1] * uv[..., 1:2] + q[:, :, 2] * uv[..., 2:3]

        def vjp(g):
            g = g.reshape(uv.shape)
            gq = (g[..., :, None] * uv[..., None, :]).sum(axis=0)
            if transpose:
                gq = gq.transpose(0, 2, 1)
            return gq.reshape(-1, 9), (q * g[..., :, None]).sum(axis=-2).reshape(-1, 3)

        return ag.fused(out.reshape(-1, 3), (q9, u), vjp)

    def _to_base(self, p, u1, u2, ctx, qs=None):
        """Analytic normalizing pass over all layers; returns (u1, u2, logdet)."""
        rows = _context_rows(ctx, len(u1))
        if qs is None:
            # after a gather, ctx is sliced back from rows so all its gradient flows through it
            qs = [self._rotation_q(p, i, ctx if rows is ctx else rows[:len(ag.as_array(ctx))])
                  for i in range(self.cfg.n_sets)]
        logdet = None
        for i, q9 in enumerate(qs):
            u1, u2, ld = self._coupling_forward(p, i, u1, u2, rows)
            logdet = ld if logdet is None else logdet + ld
            u1 = self._apply_q(q9, u1)
            u2 = self._apply_q(q9, u2)
        return u1, u2, logdet

    def _from_base(self, pv, u1, u2, ctx, qs=None):
        """Numeric generative pass (safeguarded Newton); returns (u1, u2, logdet), the
        pose -> base log-determinant summed from each coupling's root slope."""
        rows = _context_rows(ctx, len(u1))
        qs = self.rotation_qs(pv, ctx) if qs is None else qs
        logdet = np.zeros(u1.shape[0])
        for i in reversed(range(self.cfg.n_sets)):
            u1 = self._apply_q(qs[i], u1, transpose=True)
            u2 = self._apply_q(qs[i], u2, transpose=True)
            u1, u2, ld = self._coupling_inverse(pv, i, u1, u2, rows)
            logdet += ld
        return u1, u2, logdet

    # ---- public spec operations --------------------------------------------
    def _joint0_args(self, r: Rotation, context):
        """Arguments (params, set 0, u1, u2, context row) of a coupling map for r as joint 0."""
        pv = self.param_values()
        m = r.matrix()
        row = joint_context_rows(self, pv, self._context(context)[None])[:1]
        return pv, 0, m[:, 0][None, :], m[:, 1][None, :], row

    def coupling_block(self, r: Rotation, context):
        """(r_out, logdet) of joint 0 through coupling set 0, one sample, numpy path."""
        u1, u2, ld = self._coupling_forward(*self._joint0_args(r, context))
        return matrix_to_quat(_frame_matrices(u1[0], u2[0])), float(ld[0])

    def coupling_block_inverse(self, r: Rotation, context):
        u1, u2, _ = self._coupling_inverse(*self._joint0_args(r, context))
        return matrix_to_quat(_frame_matrices(u1[0], u2[0]))

    def log_prob_rows(self, p, u1, u2, ctx_rows, qs=None):
        """Per-row joint log-density of pose rows u1, u2 (N,3) read against
        conditioner rows ctx_rows (P,C): base log-pdf at the image plus logdet.
        qs, the step's `rotation_qs(p, ctx_rows)`, spares a caller that needs
        them too (phase 2's mode pass) a second rotation-layer pass: the same
        values, and the same gradients to the bit when P = N."""
        u1b, u2b, logdet = self._to_base(p, u1, u2, ctx_rows, qs)
        u3b = ag.cross(u1b, u2b)
        tr = u1b[:, 0:1] + u2b[:, 1:2] + u3b[:, 2:3]
        qdot2 = ag.clip((tr + 1.0) * 0.25, 0.0, 1.0)
        qdot = ag.sqrt(qdot2 + 1e-18)
        lp = pig_logpdf_from_qdot(qdot, self.cfg.kappa)
        return ag.reshape(lp, (-1,)) + logdet

    def flow_log_prob(self, pose_rotations, context):
        """Total log-density (nats) of K joint rotations given one context."""
        pv = self.param_values()
        u1, u2 = _pose_cols(pose_rotations)
        ctx = joint_context_rows(self, pv, self._context(context)[None])
        lp = self.log_prob_rows(pv, u1, u2, ctx)
        return float(np.sum(lp))

    def flow_sample(self, context, n, rng, include_mode=False) -> PoseBatch:
        """Draw n poses for one context (optionally prepend the mode) as one
        PoseBatch."""
        check_fields({"n": n}, int)
        ctx = self._context(context)[None]
        pv = self.param_values()
        K = self.cfg.n_joints
        quats = pig_sample_batch(self.base, n * K, rng)
        if include_mode:
            quats = np.concatenate([np.tile([1.0, 0, 0, 0], (K, 1)), quats], axis=0)
        total = quats.shape[0] // K
        mats = quat_to_matrices(quats)
        u1, u2 = mats[:, :, 0], mats[:, :, 1]
        u1, u2, logdet = self._from_base(pv, u1, u2, joint_context_rows(self, pv, ctx))
        lp_rows = pig_logpdf_batch(self.base, quats) + logdet
        mean, log_std = self.shape_params(pv, ctx)
        shapes = mean + np.exp(log_std) * rng.normal(size=(n, self.cfg.shape_dim))
        if include_mode:
            shapes = np.concatenate([mean, shapes])
        return PoseBatch(_frame_matrices(u1, u2).reshape(total, K, 3, 3), shapes,
                         lp_rows.reshape(total, K).sum(axis=1))

    def mode_sample(self, context):
        """The mode as a PoseSample; kept for the benchmark's hook until ROADMAP item 4(b)."""
        return next(iter(self.flow_sample(context, 0, np.random.default_rng(0), include_mode=True)))

    def mode_rotations(self, pv, ctx_rows, qs=None):
        """Relative rotation matrices (N,3,3) of the mode, the base identity
        pushed through the flow, for N conditioner rows (numpy, no tape).
        qs, the values of `rotation_qs(pv, ctx_rows)` (in training, those the
        step's `log_prob_rows` used), skip the rotation layers' conditioners;
        the result is the same to the bit."""
        n = ctx_rows.shape[0]
        u1, u2, _ = self._from_base(pv, np.tile([1.0, 0.0, 0.0], (n, 1)),
                                    np.tile([0.0, 1.0, 0.0], (n, 1)), ctx_rows, qs)
        return _frame_matrices(u1, u2)


def _frame_matrices(u1, u2):
    """Rotation matrices (...,3,3) whose columns are u1, u2 (...,3) made
    orthonormal by Gram-Schmidt, and their cross product."""
    u1 = u1 / np.sqrt(np.vecdot(u1, u1))[..., None]
    u2 = u2 - np.vecdot(u2, u1)[..., None] * u1
    u2 = u2 / np.sqrt(np.vecdot(u2, u2))[..., None]
    return np.stack([u1, u2, cross3(u1, u2)], axis=-1)


def _pose_cols(rotations):
    mats = as_matrices(rotations)
    return mats[:, :, 0], mats[:, :, 1]

