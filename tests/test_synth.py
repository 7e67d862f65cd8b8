"""Synthetic scene harness: cameras, rigs, datasets, serialization."""

import dataclasses
import json

import numpy as np
import pytest

from flowpose import body, solver, synth
from flowpose.body import _world_rotations
from flowpose.rotation import as_matrices, exp_matrices


def test_project_known_point():
    k = np.array([[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])
    px = synth.project(k, np.eye(3), np.zeros(3), np.array([[0.5, -0.25, 2.0]]))
    np.testing.assert_allclose(px[0], [320 + 800 * 0.25, 240 - 800 * 0.125],
                               atol=1e-12)


def _back_project(k, rot, t, px, depth):
    """The world point that the camera (k, rot, t) sees at pixel px and camera depth."""
    cam = np.linalg.solve(k[:, :3], depth * np.append(px, 1.0) - k[:, 3])
    return (cam - t) @ rot


def test_project_backproject_roundtrip(rng):
    cameras = [
        (np.array([[650.0, 0, 310, 0], [0, 650.0, 245, 0], [0, 0, 1, 0]]),
         np.eye(3), np.zeros(3)),
        # skew, a fourth intrinsics column and a turned, shifted camera
        (np.array([[810.0, 12, 315, 40], [0, 790.0, 250, -25], [0, 0, 1, 0]]),
         exp_matrices(np.array([0.2, -0.3, 0.1])), np.array([0.1, -0.2, 0.5])),
    ]
    for k, rot, t in cameras:
        for _ in range(20):
            p = rng.normal(size=3) * [0.5, 0.5, 0.2] + [0, 0, 3.0]
            px = synth.project(k, rot, t, p[None, :])[0]
            np.testing.assert_allclose(_back_project(k, rot, t, px, rot[2] @ p + t[2]), p,
                                       atol=1e-10)


def test_the_solver_projection_is_the_only_one():
    assert synth.project is solver.project


def test_make_scene_behind_camera_raises(toy_model):
    # a translation box behind the camera mirrors every pixel: the scene is refused
    behind = synth.RigSpec([synth.Camera(800.0, 800.0, 320.0, 240.0)],
                           [-0.2, -0.2, -3.2], [0.2, 0.2, -2.8])
    with pytest.raises(synth.BehindCameraError, match="camera 0.*behind its image plane"):
        synth.make_scene(toy_model, behind, synth.NoiseSpec(1.0), seed=0)
    # the second camera of the standard rig looks back along -x from x = 3
    rig = synth.standard_rig(2)
    rig.translation_lo, rig.translation_hi = np.array([3.5, 0, 3]), np.array([3.5, 0, 3])
    with pytest.raises(synth.BehindCameraError, match="camera 1"):
        synth.make_scene(toy_model, rig, synth.NoiseSpec(1.0), seed=0)


def _make_scene_placeholder_reference(model, rig, noise, seed):
    """`make_scene` as it was written before it posed the anchors once per
    scene: each view reprojects through a placeholder Observation, then
    replaces its anchors, scales and weights."""
    rng = np.random.default_rng(seed)
    state = synth.sample_state(model, rig, rng)
    world = _world_rotations(model, as_matrices(state.pose))
    n_s = len(model.anchor_indices)
    views, gts = [], []
    for cam in rig.cameras:
        obs = solver.Observation(np.zeros((n_s, 2)), np.ones(n_s), np.ones(n_s),
                                 cam.intrinsics(), cam.rot, cam.t)
        clean = solver.reproject(model, world, state.shape, state.translation, obs)
        noisy = clean + rng.laplace(scale=noise.pixel_scale, size=clean.shape) \
            if noise.pixel_scale > 0 else clean.copy()
        aux = np.ones(n_s)
        if noise.occlusion_prob > 0:
            aux[rng.random(n_s) < noise.occlusion_prob] = 0.0
        views.append(dataclasses.replace(obs, anchors_2d=noisy, aux_weight=aux,
                                         laplace_scale=np.full(n_s, max(noise.pixel_scale, 1e-3))))
        gts.append(clean)
    return synth.SceneRecord(state, views, gts, synth.context_features(views[0]), int(seed))


@pytest.mark.parametrize("rig", [synth.standard_rig(1), synth.standard_rig(2),
                                 synth.depth_ambiguous_rig(2)],
                         ids=["standard-1", "standard-2", "depth-ambiguous"])
def test_gen_dataset_matches_the_placeholder_reference_byte_for_byte(toy_model, tmp_path, rig):
    noise = synth.NoiseSpec(1.0, occlusion_prob=0.2)
    path = tmp_path / "d.jsonl"
    synth.gen_dataset(toy_model, 12, rig, noise, seed=1, path=path)
    seeds = np.random.SeedSequence(1).generate_state(12)
    ref = "".join(json.dumps(synth.scene_to_json(
        _make_scene_placeholder_reference(toy_model, rig, noise, int(s)))) + "\n" for s in seeds)
    assert path.read_bytes() == ref.encode()


def test_camera_json_roundtrip(rng):
    # a camera written as its fields (the JSON form of a gen-data rig) and
    # read back through RigSpec, which builds Cameras from JSON objects
    cam = synth._orbit_camera(700.0, np.array([0.0, 0.0, 3.0]), 3.0)
    doc = json.loads(json.dumps({k: np.asarray(v).tolist()
                                 for k, v in dataclasses.asdict(cam).items()}))
    cam2 = synth.RigSpec([doc], [0, 0, 0], [1, 1, 1]).cameras[0]
    np.testing.assert_array_equal(cam2.intrinsics(), cam.intrinsics())
    np.testing.assert_array_equal(cam2.rot, cam.rot)
    np.testing.assert_array_equal(cam2.t, cam.t)


def test_rig_validation():
    with pytest.raises(synth.RigError):
        synth.RigSpec([], [0, 0, 0], [1, 1, 1])
    with pytest.raises(synth.RigError):
        synth.standard_rig(3)


@pytest.mark.parametrize("field, value", [
    ("pixel_scale", -1.0), ("pixel_scale", float("nan")), ("pixel_scale", float("inf")),
    ("pixel_scale", "1"), ("occlusion_prob", -0.1), ("occlusion_prob", 1.5),
    ("occlusion_prob", float("nan"))])
def test_noise_spec_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        synth.NoiseSpec(**{field: value})


def test_rig_builds_cameras_from_their_fields():
    rig = synth.RigSpec([{"fx": 900, "fy": 900, "cx": 320, "cy": 240}], [0, 0, 2], [0, 0, 3])
    np.testing.assert_array_equal(rig.cameras[0].rot, np.eye(3))
    for bad in ([0, 0], [0, 0, 4]):
        with pytest.raises(synth.RigError):
            synth.RigSpec(rig.cameras, bad, [0, 0, 3])


def test_orbit_camera_looks_at_target():
    target = np.array([0.0, 0.0, 3.0])
    cam = synth._orbit_camera(800.0, target, 3.0)
    in_cam = cam.rot @ target + cam.t
    # target sits on the optical axis at the orbit radius
    np.testing.assert_allclose(in_cam, [0.0, 0.0, 3.0], atol=1e-10)


def test_scene_visible_and_reprojectable(toy_model):
    rec = synth.make_scene(toy_model, synth.standard_rig(1),
                           synth.NoiseSpec(0.0), seed=3)
    obs = rec.views[0]
    # noiseless scene: stored anchors equal the GT projections
    np.testing.assert_allclose(obs.anchors_2d, rec.gt_anchors[0], atol=1e-12)


def test_noise_perturbs_anchors(toy_model):
    a = synth.make_scene(toy_model, synth.standard_rig(1),
                         synth.NoiseSpec(0.0), seed=3)
    b = synth.make_scene(toy_model, synth.standard_rig(1),
                         synth.NoiseSpec(2.0), seed=3)
    d = np.abs(b.views[0].anchors_2d - a.views[0].anchors_2d)
    assert d.max() > 0.1
    # Laplace noise with scale 2: median absolute deviation ~ 2 ln 2
    assert 0.5 < np.median(d) < 5.0


def test_occlusion_zeroes_aux(toy_model):
    rec = synth.make_scene(toy_model, synth.standard_rig(1),
                           synth.NoiseSpec(1.0, occlusion_prob=0.5), seed=5)
    aux = rec.views[0].aux_weight
    assert (aux == 0).any() and (aux == 1).any()


def test_context_features_shape_and_visibility(toy_model):
    rec = synth.make_scene(toy_model, synth.standard_rig(1),
                           synth.NoiseSpec(1.0, occlusion_prob=0.3), seed=7)
    n_s = len(toy_model.anchor_indices)
    feats = synth.context_features(rec.views[0])
    assert feats.shape == (synth.context_feature_dim(n_s),)
    vis = feats[2 * n_s:]
    np.testing.assert_array_equal(vis, rec.views[0].aux_weight)


def test_scene_json_roundtrip(toy_model):
    rec = synth.make_scene(toy_model, synth.depth_ambiguous_rig(2),
                           synth.NoiseSpec(1.0), seed=11)
    rec2 = synth.scene_from_json(synth.scene_to_json(rec))
    assert len(rec2.views) == 2
    for a, b in zip(rec.views, rec2.views):
        np.testing.assert_array_equal(a.anchors_2d, b.anchors_2d)
        np.testing.assert_array_equal(a.intrinsics, b.intrinsics)
        np.testing.assert_array_equal(a.extrinsics_r, b.extrinsics_r)
    assert rec2.gt_state.pose[0] == rec.gt_state.pose[0]
    np.testing.assert_array_equal(rec2.gt_state.shape, rec.gt_state.shape)
    np.testing.assert_array_equal(rec2.context_features, rec.context_features)


def test_gen_dataset_deterministic_and_streamable(toy_model, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    synth.gen_dataset(toy_model, 5, synth.standard_rig(1),
                      synth.NoiseSpec(1.0), seed=4, path=p1)
    synth.gen_dataset(toy_model, 5, synth.standard_rig(1),
                      synth.NoiseSpec(1.0), seed=4, path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    ds = synth.load_dataset(p1)
    assert len(ds) == 5
    # per-scene seeds are independent: scenes differ
    assert not np.array_equal(ds[0].views[0].anchors_2d,
                              ds[1].views[0].anchors_2d)


def test_load_dataset_rejects_a_scene_without_views(toy_model, tmp_path):
    doc = synth.scene_to_json(synth.gen_dataset(toy_model, 1, synth.standard_rig(1),
                                                synth.NoiseSpec(1.0), seed=0)[0])
    doc["views"] = []
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ValueError, match="views must hold at least one view"):
        synth.load_dataset(p)


def test_gen_dataset_seed_changes_data(toy_model):
    d1 = synth.gen_dataset(toy_model, 2, synth.standard_rig(1),
                           synth.NoiseSpec(1.0), seed=0)
    d2 = synth.gen_dataset(toy_model, 2, synth.standard_rig(1),
                           synth.NoiseSpec(1.0), seed=1)
    assert not np.array_equal(d1[0].views[0].anchors_2d,
                              d2[0].views[0].anchors_2d)


def test_depth_ambiguous_rig_geometry():
    rig = synth.depth_ambiguous_rig(2)
    assert len(rig.cameras) == 2
    # long focal length and a distant subject: weak depth constraint
    assert rig.cameras[0].fx >= 2000.0
    assert rig.translation_lo[2] > 5.0


def test_observation_from_json_converts_anchors_before_the_aux_default():
    k = [[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]]
    obs = synth.observation_from_json({"anchors": [[1, 2], [3, 4]], "scale": [1, 1],
                                       "intrinsics": k})
    np.testing.assert_array_equal(obs.aux_weight, [1.0, 1.0])
    with pytest.raises(ValueError, match=r"anchors_2d must be numbers of shape \(None, 2\)"):
        synth.observation_from_json({"anchors": [[1, 2], [3]], "scale": [1, 1],
                                     "intrinsics": k})
