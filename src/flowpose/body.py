"""Toy linear-blend-skinned parametric body.

Shape blending, forward kinematics over a kinematic tree, joint
regression and anchor-vertex selection.  The bundled model is a small
generated fixture (8 joints, 96 vertices, 4 shape coefficients) --
structurally identical to the usual parametric body models but with no
licensed assets involved.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .checks import check_array, check_fields
from .rotation import as_matrices


class ModelLoadError(ValueError):
    pass


class QuotaError(ValueError):
    pass


CONVEXITY_TOL = 1e-8


def _read_only_fields(value):
    """Set each field of the frozen dataclass `value` to a read-only copy of
    its array: a caller's own array stays writable, and none can change it."""
    for f in fields(value):
        a = np.array(getattr(value, f.name))
        a.flags.writeable = False
        object.__setattr__(value, f.name, a)


@dataclass(frozen=True)
class BodyModelDef:
    """Immutable model definition, holding read-only copies of its arrays.

    template        (N,3) mean vertices, meters
    shape_basis     (S,3N) linear shape displacements
    joint_regressor (K,N), rows convex
    blend_weights   (K,N), columns convex, entries >= 0
    parents         (K,) kinematic parent indices, root = -1
    anchor_indices  (N_s,) default anchor vertex subset
    """

    template: np.ndarray
    shape_basis: np.ndarray
    joint_regressor: np.ndarray
    blend_weights: np.ndarray
    parents: np.ndarray
    anchor_indices: np.ndarray

    def __post_init__(self):
        _read_only_fields(self)     # so that the cached lever table cannot go stale

    @property
    def n_vertices(self):
        return self.template.shape[0]

    @property
    def n_joints(self):
        return self.joint_regressor.shape[0]

    @property
    def n_shape(self):
        return self.shape_basis.shape[0]

    @cached_property
    def anchor_levers(self):
        """(c (1+S,A,3), L (1+S,A,K,3)): posed under world rotations R (K,3,3),
        the anchors of the rest stack [template; shape basis] are
        c + sum_k R_k L[:, :, k].  Posed once, at the zero and the K unit stacks."""
        stacks = np.eye(self.n_joints + 1)[:, 1:, None, None] * np.eye(3)
        rest = np.concatenate([self.template[None], self.shape_basis.reshape(self.n_shape, -1, 3)])
        posed = pose_points(self, stacks[:, None], rest)[..., self.anchor_indices, :]
        c, levers = posed[0], np.ascontiguousarray(np.moveaxis(posed[1:] - posed[0], 0, 2))
        c.flags.writeable = levers.flags.writeable = False      # shared by every caller
        return c, levers


@dataclass
class BodyState:
    pose: list          # K Rotations, relative to parent
    shape: np.ndarray   # (S,)
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        self.shape = np.asarray(self.shape, float)
        self.translation = np.asarray(self.translation, float)


def _validate(template, shape_basis, joint_regressor, blend_weights,
              parents, anchor_indices):
    # `_model_array` has checked each rank
    if template.shape[1] != 3:
        raise ModelLoadError("template must be (N,3)")
    n = template.shape[0]
    if shape_basis.shape[1] != 3 * n:
        raise ModelLoadError("shape_basis must be (S,3N)")
    if joint_regressor.shape[1] != n or not len(joint_regressor):
        raise ModelLoadError("joint_regressor must be (K,N) with K >= 1")
    k = joint_regressor.shape[0]
    if blend_weights.shape != (k, n):
        raise ModelLoadError("blend_weights must match joint_regressor")
    rows = joint_regressor.sum(axis=1)
    if np.abs(rows - 1.0).max() > CONVEXITY_TOL or joint_regressor.min() < -CONVEXITY_TOL:
        raise ModelLoadError("joint regressor rows must be convex combinations")
    cols = blend_weights.sum(axis=0)
    if np.abs(cols - 1.0).max() > CONVEXITY_TOL or blend_weights.min() < -CONVEXITY_TOL:
        raise ModelLoadError("blend weight columns must be convex combinations")
    if parents.shape != (k,) or parents[0] != -1:
        raise ModelLoadError("parents must be length K with root (-1) at joint 0")
    # the posing kernels walk joints in index order, so each parent must
    # come first; this also rules out cycles
    if ((parents[1:] < 0) | (parents[1:] >= np.arange(1, k))).any():
        raise ModelLoadError("parents must satisfy 0 <= parents[j] < j for every joint j >= 1")
    if not anchor_indices.size:
        raise ModelLoadError("anchor_indices must hold at least one vertex index")
    if anchor_indices.min() < 0 or anchor_indices.max() >= n:
        raise ModelLoadError("anchor indices out of range")


def _model_array(doc, name):
    """doc[name] through `check_array`: a finite matrix, or, for the index
    arrays, a list of whole numbers (no fractional part, no bool)."""
    if name not in ("parents", "anchor_indices"):
        return check_array(name, doc[name], (None, None))
    a = check_array(name, doc[name], (None,))
    if (a != np.trunc(a)).any() or any(isinstance(v, bool) for v in doc[name]):
        raise ValueError(f"{name} must be integers, got {reprlib.repr(doc[name])}")
    return a


def load_model(path) -> BodyModelDef:
    """Read a model JSON file and validate every structural invariant."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ModelLoadError(f"malformed model file: {e}")
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise ModelLoadError("unsupported or missing format_version")
    try:
        arrays = [_model_array(doc, f.name) for f in fields(BodyModelDef)]
    except KeyError as e:
        raise ModelLoadError(f"missing model key {e}")
    except ValueError as e:
        raise ModelLoadError(str(e))
    _validate(*arrays)
    # validated in range, the index arrays convert exactly
    return BodyModelDef(*arrays[:4], *(a.astype(int) for a in arrays[4:]))


def save_model(model: BodyModelDef, path):
    doc = {"format_version": 1, **{f.name: getattr(model, f.name).tolist() for f in fields(model)}}
    with open(path, "w") as f:
        json.dump(doc, f)


def shape_blend(model: BodyModelDef, beta) -> np.ndarray:
    """x = template + beta . basis, reshaped to (...,N,3) for betas (...,S)."""
    beta = np.asarray(beta, float)
    if beta.ndim == 0 or beta.shape[-1] != model.n_shape:
        raise ValueError(f"beta must have length {model.n_shape}")
    return model.template + (beta @ model.shape_basis).reshape(*beta.shape[:-1], -1, 3)


def rest_joints(model: BodyModelDef, beta) -> np.ndarray:
    """Rest-pose joints (...,K,3) for betas (...,S)."""
    return model.joint_regressor @ shape_blend(model, beta)


def _world_rotations(model: BodyModelDef, rel) -> np.ndarray:
    """World rotations (...,K,3,3) of each joint: the relative rotation
    matrices rel (...,K,3,3) composed down the parent chain."""
    rel = np.asarray(rel, float)
    wr = np.empty_like(rel)
    for j, p in enumerate(model.parents.tolist()):
        if p < 0:
            wr[..., j, :, :] = rel[..., j, :, :]
        else:
            np.matmul(wr[..., p, :, :], rel[..., j, :, :], out=wr[..., j, :, :])
    return wr


def _chain_positions(model: BodyModelDef, world_rot, rest_joints) -> np.ndarray:
    """Joint world positions (...,K,3) for world rotations (...,K,3,3) and
    rest joints (...,K,3), before translation; the leading axes of the two
    broadcast.

    Linear in rest_joints, so a shape direction's rest-joint offsets map
    to that direction's Jacobian.
    """
    parents = np.maximum(model.parents, 0)      # the root, joint 0, has no bone
    bones = rest_joints - rest_joints[..., parents, :]
    wp = (world_rot[..., parents, :, :] @ bones[..., None])[..., 0]
    wp[..., 0, :] = rest_joints[..., 0, :]
    for j in range(1, model.n_joints):
        wp[..., j, :] += wp[..., parents[j], :]
    return wp


def pose_points(model: BodyModelDef, world_rot, rest_verts) -> np.ndarray:
    """Linear-blend-skinned positions (...,N,3) of rest_verts (...,N,3) under
    world rotations (...,K,3,3), before translation; the leading axes of the
    two broadcast.

    Each vertex is sum_k W[k,v] (R_k (v - j_k) + j_k^world) with the rest
    joints regressed from rest_verts; the map is linear in rest_verts.
    """
    rest_verts = np.asarray(rest_verts, float)
    jr = model.joint_regressor @ rest_verts
    wp = _chain_positions(model, world_rot, jr)
    local = rest_verts[..., None, :, :] - jr[..., :, None, :]     # (...,K,N,3)
    moved = local @ np.swapaxes(world_rot, -1, -2) + wp[..., :, None, :]
    return np.einsum("kn,...kni->...ni", model.blend_weights, moved)


def pose_anchors(model: BodyModelDef, world_rot, coef) -> np.ndarray:
    """Anchors (...,A,3) of the rest vertices coef . [template; shape basis]
    under world rotations (...,K,3,3), before translation; the leading axes
    broadcast.  coef [1, beta] poses shape beta, the identity (1+S,1+S) the
    stack itself.  One ((1+S)A, 3K) x (3K, 3) product contracts the lever
    table L of `anchor_levers` for every rest row: c + sum_k R_k L_k."""
    c, levers = model.anchor_levers
    n_rest, n_a = c.shape[:2]
    rt = np.swapaxes(world_rot, -1, -2)
    rt = rt.reshape(*rt.shape[:-3], -1, 3)                        # row 3k + j is R_k[:, j]
    posed = (levers.reshape(n_rest * n_a, -1) @ rt).reshape(*rt.shape[:-2], n_rest, -1)
    out = np.asarray(coef, float)[..., None, :] @ (posed + c.reshape(n_rest, -1))
    return out.reshape(*out.shape[:-2], n_a, 3)


def forward_kinematics(model: BodyModelDef, state: BodyState):
    """Pose the body.  Returns (vertices (N,3), joints (K,3)) in world space.

    Standard LBS: each joint's world transform is composed along the
    parent chain, vertices are blended with the rest pose subtracted
    out (inverse bind), translation applied last.
    """
    if len(state.pose) != model.n_joints:
        raise ValueError("pose must supply one rotation per joint")
    verts = shape_blend(model, state.shape)
    wr = _world_rotations(model, as_matrices(state.pose))
    joints = _chain_positions(model, wr, model.joint_regressor @ verts)
    return (pose_points(model, wr, verts) + state.translation,
            joints + state.translation)


def segment_of_vertex(model: BodyModelDef) -> np.ndarray:
    """Argmax-weight segment id per vertex; -1 where no weight exceeds 0.5."""
    top = model.blend_weights.argmax(axis=0)
    strong = model.blend_weights.max(axis=0) > 0.5
    return np.where(strong, top, -1)


def _fps(points, start, count):
    chosen = [start]
    d = np.linalg.norm(points - points[start], axis=1)
    while len(chosen) < count:
        nxt = int(d.argmax())
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(points - points[nxt], axis=1))
    return chosen


def select_anchors(model: BodyModelDef, per_segment_min=2, total=48) -> np.ndarray:
    """Deterministic anchor subset: farthest-point sampling per segment.

    Vertices are assigned to the joint holding >0.5 of their blend
    weight; quotas are proportional to each segment's spatial extent
    (bounding-box diagonal of its template vertices) with a floor of
    per_segment_min; FPS inside each segment starts from its lowest
    vertex index.
    """
    n = model.n_vertices
    if total > n:
        raise ValueError("cannot select more anchors than vertices")
    if total == n:
        return np.arange(n)
    seg = segment_of_vertex(model)
    seg_ids = [s for s in range(model.n_joints) if (seg == s).any()]
    if total < len(seg_ids) * per_segment_min:
        raise QuotaError(
            f"total {total} below {len(seg_ids)} segments x minimum {per_segment_min}")
    extents = []
    for s in seg_ids:
        pts = model.template[seg == s]
        extents.append(float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))))
    extents = np.asarray(extents)
    raw = total * extents / extents.sum()
    quota = np.maximum(per_segment_min, np.floor(raw).astype(int))
    quota = np.minimum(quota, [int((seg == s).sum()) for s in seg_ids])
    # hand out the remainder by largest fractional part, deterministically
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    i = 0
    while quota.sum() < total and i < 10 * len(seg_ids):
        s = order[i % len(seg_ids)]
        if quota[s] < (seg == seg_ids[s]).sum():
            quota[s] += 1
        i += 1
    while quota.sum() > total:
        s = int(quota.argmax())
        if quota[s] > per_segment_min:
            quota[s] -= 1
        else:
            break
    out = []
    for s, q in zip(seg_ids, quota):
        idx = np.flatnonzero(seg == s)
        picked = _fps(model.template[idx], 0, int(q))
        out.extend(int(idx[p]) for p in picked)
    return np.array(sorted(out))


# ---------------------------------------------------------------------------
# toy fixture generator

_TOY_PARENTS = np.array([-1, 0, 1, 1, 1, 0, 0, 1])
# bone direction and length per joint in the rest pose, meters
_TOY_OFFSETS = np.array([
    [0.00, 0.00, 0.00],
    [0.00, 0.25, 0.00],
    [0.00, 0.30, 0.00],
    [-0.28, 0.18, 0.00],
    [0.28, 0.18, 0.00],
    [-0.12, -0.40, 0.00],
    [0.12, -0.40, 0.00],
    [0.00, 0.12, 0.08],
])


def make_toy_model(n_per_joint=12, n_shape=4, seed=20240214) -> BodyModelDef:
    """Procedural 8-joint / 96-vertex body used by every synthetic experiment.

    Vertices sit on small rings around each bone; blend weights are a
    sharpened soft assignment by distance to the owning joint so most
    vertices are dominated (>0.5) by one joint but boundaries stay
    smooth.  The shape basis mixes global scale, height, limb length
    and girth directions.
    """
    check_fields({"n_per_joint": n_per_joint}, int, least=6)    # 48 anchors
    check_fields({"n_shape": n_shape}, int, least=4)            # 4 shape directions
    rng = np.random.default_rng(seed)
    k = len(_TOY_PARENTS)
    joints = np.zeros((k, 3))
    for j in range(1, k):
        joints[j] = joints[_TOY_PARENTS[j]] + _TOY_OFFSETS[j]
    verts = []
    owner = []
    for j in range(k):
        p = _TOY_PARENTS[j]
        a = joints[p] if p >= 0 else joints[j] - np.array([0, 0.12, 0])
        b = joints[j]
        axis = b - a
        ln = np.linalg.norm(axis)
        axis = axis / ln if ln > 0 else np.array([0.0, 1.0, 0.0])
        # two orthogonal ring directions
        ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 0.0, 1.0])
        e1 = np.cross(axis, ref)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)
        for i in range(n_per_joint):
            t = (i % 4) / 3.0            # 4 stations along the bone
            ang = 2 * np.pi * (i // 4) / (n_per_joint // 4)
            r = 0.05 + 0.01 * np.sin(3 * ang)
            verts.append(a + t * (b - a) + r * (np.cos(ang) * e1 + np.sin(ang) * e2)
                         + 0.003 * rng.normal(size=3))
            owner.append(j)
    verts = np.asarray(verts)
    owner = np.asarray(owner)
    n = len(verts)

    # blend weights: sharpened inverse-distance to each joint position,
    # biased strongly toward the generating bone
    d = np.linalg.norm(verts[None, :, :] - joints[:, None, :], axis=-1)
    w = np.exp(-(d / 0.09) ** 2)
    w[owner, np.arange(n)] += 3.0 * w.max(axis=0)
    w = w / w.sum(axis=0, keepdims=True)
    # regressor: convex average over the vertices each joint owns
    regr = np.zeros((k, n))
    for j in range(k):
        idx = np.flatnonzero(owner == j)
        regr[j, idx] = 1.0 / len(idx)
    # the ring construction centers each ring on the bone, so the owned
    # average sits near the bone midpoint; shift rows toward the joint by
    # mixing in the 4 nearest vertices to the joint itself
    for j in range(k):
        near = np.argsort(np.linalg.norm(verts - joints[j], axis=1))[:4]
        regr[j] *= 0.3
        regr[j, near] += 0.7 / 4.0

    # note: no global-scale direction -- under perspective projection a
    # uniform scale trades off against depth translation and would make
    # (beta, t) unidentifiable; all directions here are localized
    basis = np.zeros((n_shape, 3 * n))
    head = np.zeros_like(verts)
    head_mask = owner == 2
    head[head_mask] = 0.07 * (verts[head_mask] - joints[2])
    basis[0] = head.reshape(-1)
    height = np.zeros_like(verts)
    height[:, 1] = 0.06 * (verts[:, 1] - verts[:, 1].min())
    basis[1] = height.reshape(-1)
    limb = np.zeros_like(verts)
    limb_mask = np.isin(owner, [3, 4, 5, 6])
    limb[limb_mask] = 0.05 * (verts[limb_mask] - joints[0])
    basis[2] = limb.reshape(-1)
    shoulders = np.zeros_like(verts)
    arm_mask = np.isin(owner, [3, 4])
    shoulders[arm_mask, 0] = 0.05 * (verts[arm_mask, 0] - joints[1][0])
    basis[3] = shoulders.reshape(-1)

    model = BodyModelDef(verts, basis, regr, w, _TOY_PARENTS, np.arange(0))
    anchors = select_anchors(model, per_segment_min=4, total=48)
    return BodyModelDef(verts, basis, regr, w, _TOY_PARENTS, anchors)
