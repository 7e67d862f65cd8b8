"""Two-phase training of the conditional flow on synthetic scenes,
plus the fixed-context multimodal toy fit.

Phase 1 trains by likelihood: pose NLL through the flow (joint 0, the
root, included), shape NLL through the diagonal-Gaussian head, and the
Laplace observation loss of the anchor/uncertainty head.  Phase 2 adds
L1 losses on the mode sample's 3D joints and projected anchors; the mode
pose itself is obtained by the flow's numeric inverse and is treated as
a constant, so these terms steer the shape head.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .body import BodyModelDef, _chain_positions, _world_rotations, pose_anchors, rest_joints
from .checks import check_fields
from .distributions import ProjectedIsoGaussian, pig_sample_batch
from .flow import FlowConfig, FlowModel, joint_context_rows
from .nets import Adam, GradientDescent, ParamStore, mlp_apply, mlp_init
from .rotation import Rotation, as_matrices, matrix_to_quats, quat_multiply, quat_to_matrices
from .solver import check_anchor_counts, laplacian_nll
from .synth import context_feature_dim, normalized_pixels


class TrainingAborted(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lambda1: float = 0.01      # Laplace observation loss
    lambda2: float = 0.001     # pose NLL
    lambda3: float = 0.0001    # shape NLL
    lambda5: float = 0.1       # phase-2 projected-anchor L1
    lambda6: float = 0.1       # phase-2 mode 3D joint L1
    phase1_epochs: int = 20
    phase2_epochs: int = 5
    lr: float = 1e-3
    batch_size: int = 8
    kappa: float = 2.0
    seed: int = 0
    optimizer: str = "sgd"     # "sgd" (default, clipped) or "adam"
    context_dim: int = 16
    enc_channels: int = 64
    flow_channels: int = 32
    flow_sets: int = 2
    k_transforms: int = 8
    blocks: int = 2

    def __post_init__(self):
        check_fields(vars(self), float, ("lambda1", "lambda2", "lambda3", "lambda5", "lambda6"))
        check_fields(vars(self), float, ("kappa", "lr"), above=True)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        check_fields(vars(self), int,
                     ("phase1_epochs", "phase2_epochs", "blocks", "context_dim", "seed"))
        check_fields(vars(self), int, ("batch_size", "flow_sets", "k_transforms",
                                       "flow_channels", "enc_channels"), 1)
        if self.phase1_epochs + self.phase2_epochs == 0:
            raise ValueError("phase1_epochs + phase2_epochs must be positive")


def _gauss_nll(mu, log_std, beta_gt):
    """Mean diagonal-Gaussian NLL of beta_gt (B,S) under means mu and log-stds log_std."""
    z = (beta_gt - mu) * ag.exp(-log_std)
    per = ag.reduce_sum(log_std + 0.5 * z * z, axis=1) + 0.5 * beta_gt.shape[1] * np.log(2 * np.pi)
    return ag.mean(per)


def _laplace_obs_loss(pdict, blocks, feats, gt_norm, n_s):
    """Laplace NLL of the anchor/uncertainty head in normalized units."""
    out = mlp_apply(pdict, "obs", feats, blocks)
    b = ag.as_array(feats).shape[0]
    pred = ag.reshape(out[:, :2 * n_s], (b * n_s, 2))
    scale = ag.exp(ag.reshape(ag.clip(out[:, 2 * n_s:], -7.0, 3.0), (b * n_s,)))
    return laplacian_nll(pred, scale, gt_norm.reshape(b * n_s, 2))


def _scene_tensors(model, dataset):
    """Per-scene ground-truth arrays used every step, stacked over the dataset,
    and the rest-stack constants of phase 2."""
    n = len(dataset)
    pose = np.stack([as_matrices(rec.gt_state.pose) for rec in dataset])
    betas = np.stack([rec.gt_state.shape for rec in dataset])
    views = [rec.views[0] for rec in dataset]
    intrinsics = np.stack([obs.intrinsics for obs in views])
    # view 0's 3x4 camera matrix on the GT-translated body, K [R | t_ext + R t_gt; 0 0 0 1]
    rigid = np.tile(np.eye(4), (n, 1, 1))
    rigid[:, :3, :3] = np.stack([obs.extrinsics_r for obs in views])
    rigid[:, :3, 3] = np.stack([obs.extrinsics_t for obs in views]) + np.einsum(
        "bij,bj->bi", rigid[:, :3, :3], np.stack([rec.gt_state.translation for rec in dataset]))
    anchors = np.stack([rec.gt_anchors[0] for rec in dataset])
    # posing is linear in the rest vertices: row 0 of each posed stack is
    # the template, rows 1..S are the shape Jacobian
    s = model.n_shape
    rest = np.concatenate([model.template[None], model.shape_basis.reshape(s, -1, 3)])
    return {
        "feats": np.stack([rec.context_features for rec in dataset]),
        "u1": pose[..., 0], "u2": pose[..., 1], "beta": betas,
        "joints": _chain_positions(model, _world_rotations(model, pose),
                                   np.stack([rest_joints(model, b) for b in betas])),
        "camera": intrinsics @ rigid,
        "anchors": anchors,
        # normalized GT (noise-free) anchors for the observation head
        "anchors_norm": normalized_pixels(anchors, intrinsics).reshape(n, -1),
        # shared by every scene: the rest stack's joints and its identity coefficients
        "stack_joints": model.joint_regressor @ rest,
        "stack_coef": np.eye(s + 1),
    }


def _mu_combination(mu, posed):
    """posed[:, 0] + sum_s mu[:, s] posed[:, 1 + s] on the tape, flattened
    to (B, M), for posed (B,1+S,...) holding the image of the template and
    of each shape direction."""
    b, s1 = posed.shape[:2]
    flat = posed.reshape(b, s1, -1)
    return ag.reduce_sum(ag.reshape(mu, (b, s1 - 1, 1)) * flat[:, 1:], axis=1) + flat[:, 0]


def _mode_shape_losses(flow, model, tensors, idx, ctx_rows, mu, qs=None):
    """Phase-2 terms over the batch idx: L1 of the mode poses' 3D joints
    and projected anchors, differentiable in the shape-head means mu (B,S)
    only (the mode poses are constant).  qs, when given, are the values of
    the step's rotation-layer Qs for ctx_rows, which the mode pass reuses."""
    b = len(idx)
    rel = flow.mode_rotations(flow.param_values(), ag.as_array(ctx_rows), qs)
    world = _world_rotations(model, rel.reshape(b, -1, 3, 3))[:, None]
    joints = _chain_positions(model, world, tensors["stack_joints"])
    j3d = _mu_combination(mu, joints)
    l3d = ag.mean(ag.absolute(j3d - tensors["joints"][idx].reshape(b, -1)))

    # the camera matrix maps the template's anchors with its fourth column and the
    # shape directions' without: only the perspective division is left to the tape
    cam = tensors["camera"][idx][:, None]
    uvw = pose_anchors(model, world, tensors["stack_coef"]) @ np.swapaxes(cam[..., :3], -1, -2)
    uvw[:, 0] += cam[..., 3]
    uvw = ag.reshape(_mu_combination(mu, uvw), (b, -1, 3))
    l2d = ag.mean(ag.absolute(uvw[:, :, :2] / uvw[:, :, 2:3] - tensors["anchors"][idx]))
    return l2d, l3d


def train(model: BodyModelDef, dataset, cfg: TrainConfig):
    """Returns (flow, extra ParamStore with encoder+obs head, log rows).

    The log is a list of dicts (one per epoch) with every loss term;
    callers serialize it as CSV.
    """
    if not len(dataset):
        raise ValueError("dataset must hold at least one scene")
    for i, rec in enumerate(dataset):
        check_anchor_counts(model, rec.views[:1], i)        # training reads view 0
    rng = np.random.default_rng(cfg.seed)
    n_s = len(model.anchor_indices)
    feat_dim = context_feature_dim(n_s)
    fcfg = FlowConfig(n_joints=model.n_joints, context_dim=cfg.context_dim,
                      shape_dim=model.n_shape, k_transforms=cfg.k_transforms,
                      n_sets=cfg.flow_sets, channels=cfg.flow_channels,
                      blocks=cfg.blocks, kappa=cfg.kappa)
    flow = FlowModel(fcfg, rng)
    extra = ParamStore()
    mlp_init(extra, "enc", feat_dim, cfg.context_dim, cfg.enc_channels,
             cfg.blocks, rng, zero_final=False)
    mlp_init(extra, "obs", feat_dim, 3 * n_s, cfg.enc_channels, cfg.blocks, rng)

    leaves = flow.params.leaves() + extra.leaves()
    names = flow.params.names() + extra.names()
    pdict = dict(zip(names, leaves))
    opt = (Adam if cfg.optimizer == "adam" else GradientDescent)(leaves, cfg.lr)

    tensors = _scene_tensors(model, dataset)
    n = len(dataset)
    k = model.n_joints
    log_rows = []
    total_epochs = cfg.phase1_epochs + cfg.phase2_epochs
    for epoch in range(total_epochs):
        phase2 = epoch >= cfg.phase1_epochs
        order = rng.permutation(n)
        sums = {"lnll": 0.0, "pose_nll": 0.0, "shape_nll": 0.0,
                "l2d": 0.0, "l3d": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            b = len(idx)
            for l in leaves:
                l.grad = None
            ctx = mlp_apply(pdict, "enc", tensors["feats"][idx], cfg.blocks)
            ctx_rows = joint_context_rows(flow, pdict, ctx)
            # one rotation-layer pass serves the log-prob pass and phase 2's mode pass
            qs = flow.rotation_qs(pdict, ctx_rows)
            u1 = tensors["u1"][idx].reshape(b * k, 3)
            u2 = tensors["u2"][idx].reshape(b * k, 3)
            lp = flow.log_prob_rows(pdict, u1, u2, ctx_rows, qs)
            pose_nll = -ag.reduce_sum(lp) / float(b)
            mu, log_std = flow.shape_params(pdict, ctx)
            shape_nll = _gauss_nll(mu, log_std, tensors["beta"][idx])
            lnll = _laplace_obs_loss(pdict, cfg.blocks, tensors["feats"][idx],
                                     tensors["anchors_norm"][idx], n_s)
            loss = (cfg.lambda1 * lnll + cfg.lambda2 * pose_nll
                    + cfg.lambda3 * shape_nll)
            l2d_v = l3d_v = 0.0
            if phase2 and (cfg.lambda5 > 0 or cfg.lambda6 > 0):
                l2d, l3d = _mode_shape_losses(flow, model, tensors, idx, ctx_rows, mu,
                                              [ag.as_array(q) for q in qs])
                loss = loss + cfg.lambda5 * l2d + cfg.lambda6 * l3d
                l2d_v, l3d_v = float(ag.as_array(l2d)), float(ag.as_array(l3d))
            lv = float(ag.as_array(loss))
            if not np.isfinite(lv):
                raise TrainingAborted(
                    f"non-finite loss at epoch {epoch} (pose_nll="
                    f"{float(ag.as_array(pose_nll)):.3f})")
            ag.backward(loss)
            opt.step()
            sums["lnll"] += float(ag.as_array(lnll))
            sums["pose_nll"] += float(ag.as_array(pose_nll))
            sums["shape_nll"] += float(ag.as_array(shape_nll))
            sums["l2d"] += l2d_v
            sums["l3d"] += l3d_v
            sums["total"] += lv
            n_batches += 1
        row = {"epoch": epoch, "phase": 2 if phase2 else 1}
        row.update({kk: vv / n_batches for kk, vv in sums.items()})
        log_rows.append(row)
    return flow, extra, log_rows


def log_to_csv(log_rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(log_rows[0].keys()))
    writer.writeheader()
    for row in log_rows:
        writer.writerow(row)
    return buf.getvalue()


def make_encoder(extra: ParamStore, blocks):
    """Closure mapping raw context features to the flow's context vector."""
    def encode(feat):
        vals = extra.values()
        out = mlp_apply(vals, "enc", np.asarray(feat, float)[None, :], blocks)
        return np.asarray(out)[0]
    return encode


# ---------------------------------------------------------------------------
# fixed-context toy distribution fit

CAPTURE_DEG = 20.0   # geodesic radius of a mode's capture region
_IDENTITY = Rotation.identity()     # the noise mode, built once

def sample_targets(targets, n, noise_kappa, rng):
    """Quaternions (n,4) near the target modes: mode composed with pig noise."""
    noise = pig_sample_batch(ProjectedIsoGaussian(_IDENTITY, noise_kappa), n, rng)
    which = rng.integers(len(targets), size=n)
    modes = np.stack([t.q for t in targets])[which]
    return quat_multiply(modes, noise)


def fit_toy_distribution(targets, flow_cfg=None, steps=3000, batch=128,
                         lr=1e-3, noise_kappa=24.0, seed=0,
                         report_samples=10000):
    """Fit a fixed-context flow to a small multimodal rotation mixture.

    Returns (flow, report) where the report carries per-mode captured
    mass among report_samples draws (a draw within CAPTURE_DEG of a mode
    is captured), the fraction near any mode, and mean NLL before/after.
    """
    if not len(targets):
        raise ValueError("targets must hold at least one rotation")
    check_fields({"steps": steps}, int)
    check_fields({"batch": batch, "report_samples": report_samples}, int, least=1)
    check_fields({"lr": lr, "noise_kappa": noise_kappa}, float, above=True)
    rng = np.random.default_rng(seed)
    cfg = flow_cfg or FlowConfig(n_joints=1, context_dim=1, shape_dim=1,
                                 k_transforms=16, n_sets=4, channels=64,
                                 blocks=2, embed_dim=4, kappa=1.0)
    flow = FlowModel(cfg, rng)
    leaves = flow.params.leaves()
    pdict = dict(zip(flow.params.names(), leaves))
    opt = Adam(leaves, lr)
    context = np.zeros(cfg.context_dim)

    def nll_of(quats, p):
        mats = quat_to_matrices(quats)
        # one fixed context: its K joint rows condition every sample
        rows = joint_context_rows(flow, p, context[None])
        return -ag.mean(flow.log_prob_rows(p, mats[:, :, 0], mats[:, :, 1], rows))

    probe = sample_targets(targets, 1024, noise_kappa, np.random.default_rng(seed + 1))
    nll_before = float(ag.as_array(nll_of(probe, flow.param_values())))
    for step in range(steps):
        quats = sample_targets(targets, batch, noise_kappa, rng)
        for l in leaves:
            l.grad = None
        loss = nll_of(quats, pdict)
        lv = float(ag.as_array(loss))
        if not np.isfinite(lv):
            raise TrainingAborted(f"non-finite toy-fit loss at step {step}")
        ag.backward(loss)
        opt.step()
    nll_after = float(ag.as_array(nll_of(probe, flow.param_values())))

    draws = flow.flow_sample(context, report_samples, rng)
    quats = matrix_to_quats(draws.rotations[:, 0])
    # geodesic distance of every draw to every target, from canonical quaternions
    dist = 2.0 * np.arccos(np.minimum(np.abs(quats @ np.stack([t.q for t in targets]).T), 1.0))
    nearest = dist.argmin(axis=1)
    captured = dist[np.arange(len(quats)), nearest] <= np.deg2rad(CAPTURE_DEG)
    counts = np.bincount(nearest[captured], minlength=len(targets))
    report = {
        "nll_before": nll_before,
        "nll_after": nll_after,
        "captured_fraction": 1.0 - np.count_nonzero(~captured) / len(quats),
        "per_mode_mass": (counts / len(quats)).tolist(),
        "n_samples": len(quats),
        "capture_deg": CAPTURE_DEG,
        "steps": steps,
    }
    return flow, report
