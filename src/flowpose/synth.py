"""Synthetic scene generation: cameras, rigs, noise and datasets.

A scene is a body state drawn from a configurable prior, observed by a
camera rig as noisy 2D anchor positions.  Records are written as JSON
lines so datasets diff cleanly and regenerate byte-identically from a
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .body import BodyModelDef, BodyState, _world_rotations, pose_anchors
from .checks import check_fields
from .rotation import Rotation, as_matrices, axis_angle_exp
from .solver import Observation, project


class BehindCameraError(ValueError):
    pass


class RigError(ValueError):
    pass


@dataclass
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    rot: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rot = np.asarray(self.rot, float)
        self.t = np.asarray(self.t, float)

    def intrinsics(self):
        return np.array([[self.fx, 0.0, self.cx, 0.0],
                         [0.0, self.fy, self.cy, 0.0],
                         [0.0, 0.0, 1.0, 0.0]])


@dataclass
class RigSpec:
    """Camera rig plus the scene prior it observes; cameras may be given as
    Camera fields (JSON objects)."""

    cameras: list
    translation_lo: np.ndarray
    translation_hi: np.ndarray
    pose_sigma: float = 0.3      # per-joint axis-angle std, radians
    shape_sigma: float = 0.5

    @np.errstate(over="ignore", invalid="ignore")   # hi - lo below may overflow or be NaN
    def __post_init__(self):
        self.cameras = [c if isinstance(c, Camera) else Camera(**c) for c in self.cameras]
        if not self.cameras:
            raise RigError("rig needs at least one camera")
        lo = self.translation_lo = np.asarray(self.translation_lo, float)
        hi = self.translation_hi = np.asarray(self.translation_hi, float)
        # a finite span hi - lo is what sample_state's rng.uniform draws from
        if lo.shape != (3,) or hi.shape != (3,) or not (np.isfinite(hi - lo) & (lo <= hi)).all():
            raise RigError("translation_lo and translation_hi must be 3-vectors, lo <= hi, "
                           "hi - lo finite")
        check_fields(vars(self), float, ("pose_sigma", "shape_sigma"))
        for cam in self.cameras:   # Observation's checks of the camera fields, on no anchors
            Observation(np.zeros((0, 2)), np.zeros(0), None, cam.intrinsics(), cam.rot, cam.t)


@dataclass
class NoiseSpec:
    pixel_scale: float = 1.0     # Laplace scale, pixels
    occlusion_prob: float = 0.0  # chance an anchor's aux weight is zeroed

    def __post_init__(self):
        check_fields(vars(self), float, ("pixel_scale", "occlusion_prob"))
        if self.occlusion_prob > 1:
            raise ValueError(f"occlusion_prob must be at most 1, got {self.occlusion_prob!r}")


def standard_rig(n_views=1):
    """Subject ~3 m in front of a 800 px focal camera; second view at 90 deg."""
    cams = [Camera(800.0, 800.0, 320.0, 240.0)]
    if n_views >= 2:
        cams.append(_orbit_camera(800.0, np.array([0.0, 0.0, 3.0]), 3.0))
    if n_views > 2:
        raise RigError("standard rig defines at most two views")
    return RigSpec(cams, [-0.2, -0.2, 2.8], [0.2, 0.2, 3.2])


def depth_ambiguous_rig(n_views=2):
    """Long focal length, distant subject: single-view depth is nearly
    unobservable; the orthogonal second view restores it."""
    cams = [Camera(4000.0, 4000.0, 320.0, 240.0)]
    if n_views >= 2:
        cams.append(_orbit_camera(4000.0, np.array([0.0, 0.0, 8.0]), 8.0))
    return RigSpec(cams, [-0.1, -0.1, 7.6], [0.1, 0.1, 8.4])


def _orbit_camera(f, target, radius):
    """A camera on the +x side of the target, looking back at it."""
    pos = target + np.array([radius, 0.0, 0.0])
    z = target - pos
    z /= np.linalg.norm(z)
    y = np.array([0.0, 1.0, 0.0])
    x = np.cross(y, z)
    x /= np.linalg.norm(x)
    rot = np.stack([x, np.cross(z, x), z])
    return Camera(f, f, 320.0, 240.0, rot, -rot @ pos)


@dataclass
class SceneRecord:
    gt_state: BodyState
    views: list                  # Observations (noisy anchors)
    gt_anchors: list             # per view, noise-free (N_s,2)
    context_features: np.ndarray
    rng_seed: int


def normalized_pixels(pixels, intrinsics):
    """Pixels (...,N,2) as (px - c) / f_x under intrinsics (...,3,4)."""
    return (pixels - intrinsics[..., None, :2, 2]) / intrinsics[..., None, None, 0, 0]


def context_features(obs: Observation):
    """Flattened normalized noisy anchors + visibility flags (view 0)."""
    vis = (obs.aux_weight > 0).astype(float)
    return np.concatenate([normalized_pixels(obs.anchors_2d, obs.intrinsics).reshape(-1), vis])


def context_feature_dim(n_anchors):
    return 3 * n_anchors


def sample_state(model: BodyModelDef, rig: RigSpec, rng) -> BodyState:
    pose = [axis_angle_exp(rng.normal(scale=rig.pose_sigma, size=3))
            for _ in range(model.n_joints)]
    shape = rng.normal(scale=rig.shape_sigma, size=model.n_shape)
    t = rng.uniform(rig.translation_lo, rig.translation_hi)
    return BodyState(pose, shape, t)


def make_scene(model, rig: RigSpec, noise: NoiseSpec, seed) -> SceneRecord:
    """A state drawn from the rig's prior, its anchors posed once and seen by every
    camera.  Raises BehindCameraError for an anchor at or behind an image plane."""
    rng = np.random.default_rng(seed)
    state = sample_state(model, rig, rng)
    pts = pose_anchors(model, _world_rotations(model, as_matrices(state.pose)),
                       np.concatenate([[1.0], state.shape])) + state.translation
    n_s = len(pts)
    views, gts = [], []
    for i, cam in enumerate(rig.cameras):
        depth = pts @ cam.rot[2] + cam.t[2]
        if (depth <= 1e-6).any():
            raise BehindCameraError(f"camera {i} sees an anchor at depth {depth.min():.3g} m, "
                                    "behind its image plane: move the rig's translation box")
        clean = project(cam.intrinsics(), cam.rot, cam.t, pts)
        noisy = clean + rng.laplace(scale=noise.pixel_scale, size=clean.shape) \
            if noise.pixel_scale > 0 else clean.copy()
        aux = np.ones(n_s)
        if noise.occlusion_prob > 0:
            aux[rng.random(n_s) < noise.occlusion_prob] = 0.0
        views.append(Observation(noisy, np.full(n_s, max(noise.pixel_scale, 1e-3)), aux,
                                 cam.intrinsics(), cam.rot, cam.t))
        gts.append(clean)
    feats = context_features(views[0])
    return SceneRecord(state, views, gts, feats, int(seed))


def _obs_to_json(obs: Observation, gt):
    return {"anchors": obs.anchors_2d.tolist(),
            "gt_anchors": np.asarray(gt).tolist(),
            "scale": obs.laplace_scale.tolist(),
            "aux": obs.aux_weight.tolist(),
            "intrinsics": obs.intrinsics.tolist(),
            "extr_r": obs.extrinsics_r.tolist(),
            "extr_t": obs.extrinsics_t.tolist()}


def observation_from_json(d) -> Observation:
    """An Observation from its JSON keys: anchors, scale and intrinsics are
    required; aux defaults to ones and extr_r/extr_t to the identity camera.
    Raises ValueError naming a missing required key."""
    if not isinstance(d, dict):
        raise ValueError(f"an observation must be a JSON object, got {type(d).__name__}")
    for key in ("anchors", "scale", "intrinsics"):
        if key not in d:
            raise ValueError(f"observation is missing {key!r}")
    return Observation(d["anchors"], d["scale"], d.get("aux"), d["intrinsics"],
                       d.get("extr_r", np.eye(3)), d.get("extr_t", np.zeros(3)))


def scene_to_json(rec: SceneRecord):
    return {"seed": rec.rng_seed,
            "gt": {"pose": [r.to_json() for r in rec.gt_state.pose],
                   "shape": rec.gt_state.shape.tolist(),
                   "translation": rec.gt_state.translation.tolist()},
            "views": [_obs_to_json(o, g) for o, g in zip(rec.views, rec.gt_anchors)],
            "context": rec.context_features.tolist()}


def scene_from_json(d) -> SceneRecord:
    pose = [Rotation(np.asarray(q, float)) for q in d["gt"]["pose"]]
    state = BodyState(pose, d["gt"]["shape"], d["gt"]["translation"])
    if not d["views"]:
        raise ValueError("a scene record's views must hold at least one view")
    views, gts = [], []
    for v in d["views"]:
        views.append(observation_from_json(v))
        gts.append(np.asarray(v["gt_anchors"], float))
    return SceneRecord(state, views, gts, np.asarray(d["context"], float),
                       int(d["seed"]))


def gen_dataset(model, n_scenes, rig: RigSpec, noise: NoiseSpec, seed,
                path=None):
    """Generate scenes with per-scene RNG streams spawned from the seed."""
    check_fields({"n_scenes": n_scenes}, int, least=1)
    seeds = np.random.SeedSequence(seed).generate_state(n_scenes)
    records = [make_scene(model, rig, noise, int(s)) for s in seeds]
    if path is not None:
        with open(path, "w") as f:
            for rec in records:
                f.write(json.dumps(scene_to_json(rec)) + "\n")
    return records


def load_dataset(path):
    with open(path) as f:
        try:
            return [scene_from_json(json.loads(line)) for line in f if line.strip()]
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path} holds a line that is not a scene record: {e!r}")
