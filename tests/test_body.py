"""Articulated body model: skinning, kinematics, serialization, anchors."""

import dataclasses

import numpy as np
import pytest

from flowpose import body
from flowpose.rotation import Rotation, as_matrices, axis_angle_exp, exp_matrices


def _naive_fk(model, state):
    """Independent forward-kinematics implementation used as a test oracle:
    explicit per-joint 4x4 world transforms and per-vertex blending."""
    verts = body.shape_blend(model, state.shape)
    jr = model.joint_regressor @ verts
    k = model.n_joints
    world = [None] * k
    for j in range(k):
        local = np.eye(4)
        local[:3, :3] = state.pose[j].matrix()
        p = model.parents[j]
        local[:3, 3] = jr[j] - (jr[p] if p >= 0 else 0.0)
        world[j] = local if p < 0 else world[p] @ local
    out = np.zeros_like(verts)
    for i in range(verts.shape[0]):
        h = np.zeros(4)
        for j in range(k):
            rel = np.eye(4)
            rel[:3, 3] = -jr[j]
            h += model.blend_weights[j, i] * (world[j] @ rel @ np.append(verts[i], 1.0))
        out[i] = h[:3] / h[3]
    joints = np.array([w[:3, 3] for w in world])
    return out + state.translation, joints + state.translation


def test_fk_matches_naive(toy_model, rng):
    for _ in range(5):
        state = body.BodyState(
            [axis_angle_exp(rng.normal(scale=0.4, size=3))
             for _ in range(toy_model.n_joints)],
            rng.normal(scale=0.5, size=toy_model.n_shape),
            rng.normal(size=3))
        v, j = body.forward_kinematics(toy_model, state)
        v_ref, j_ref = _naive_fk(toy_model, state)
        np.testing.assert_allclose(v, v_ref, atol=1e-10)
        np.testing.assert_allclose(j, j_ref, atol=1e-10)
        # the anchors the solver, training and metrics pose
        anchors = body.pose_anchors(
            toy_model, body._world_rotations(toy_model, as_matrices(state.pose)),
            np.concatenate([[1.0], state.shape]))
        np.testing.assert_allclose(anchors + state.translation,
                                   v_ref[toy_model.anchor_indices], atol=1e-10)


def test_anchor_levers_reproduce_pose_points(toy_model, rng):
    """`pose_anchors` contracts the table exactly: random world rotations,
    a third of the joints within 1e-6 rad of a half turn, for one pose with
    a random beta, a (B,K,3,3) stack with one beta per pose, and a stack
    under the identity coefficients, which poses [template; shape basis]."""
    k, s = toy_model.n_joints, toy_model.n_shape
    idx = toy_model.anchor_indices
    c, levers = toy_model.anchor_levers
    assert c.shape == (1 + s, len(idx), 3)
    assert levers.shape == (1 + s, len(idx), k, 3)
    rest = np.concatenate([toy_model.template[None], toy_model.shape_basis.reshape(s, -1, 3)])

    def check(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for trial in range(10):
        axes = rng.normal(size=(6, k, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        angles = rng.uniform(0, np.pi, (6, k, 1))
        angles[:, trial % 3::3] = np.pi - rng.uniform(0, 1e-6, angles[:, trial % 3::3].shape)
        worlds = exp_matrices(angles * axes)
        betas = rng.normal(scale=1.5, size=(6, s))
        coefs = np.concatenate([np.ones((6, 1)), betas], axis=1)
        check(body.pose_anchors(toy_model, worlds[0], coefs[0]),
              body.pose_points(toy_model, worlds[0], body.shape_blend(toy_model, betas[0]))[idx])
        check(body.pose_anchors(toy_model, worlds, coefs),
              body.pose_points(toy_model, worlds, body.shape_blend(toy_model, betas))[:, idx])
        check(body.pose_anchors(toy_model, worlds[:, None], np.eye(1 + s)),
              body.pose_points(toy_model, worlds[:, None], rest)[..., idx, :])


def test_anchor_levers_follow_the_anchor_set(toy_model, rng):
    sub = toy_model.anchor_indices[::3]
    other = dataclasses.replace(toy_model, anchor_indices=sub)
    assert other.anchor_levers[0].shape[1] == len(sub)
    assert toy_model.anchor_levers[0].shape[1] == len(toy_model.anchor_indices)
    world = exp_matrices(rng.normal(size=(toy_model.n_joints, 3)))
    beta = rng.normal(size=toy_model.n_shape)
    posed = body.pose_points(toy_model, world, body.shape_blend(toy_model, beta))[sub]
    np.testing.assert_allclose(body.pose_anchors(other, world, np.concatenate([[1.0], beta])),
                               posed, rtol=0, atol=1e-12)
    for table in other.anchor_levers:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_a_model_holds_read_only_copies_of_its_arrays(toy_model, rng):
    # no write can leave the cached lever table behind the arrays: it raises
    given = {f.name: getattr(toy_model, f.name).copy() for f in dataclasses.fields(toy_model)}
    model = body.BodyModelDef(**given)
    world = exp_matrices(rng.normal(size=(model.n_joints, 3)))
    posed = body.pose_anchors(model, world, np.eye(1 + model.n_shape))
    for name, a in given.items():
        held = getattr(model, name)
        np.testing.assert_array_equal(held, a)
        with pytest.raises(ValueError, match="read-only"):
            held[0] += 1
        a[0] += 1                           # the caller's own array stays writable
        assert not np.array_equal(held, a), name
    np.testing.assert_array_equal(body.pose_anchors(model, world, np.eye(1 + model.n_shape)),
                                  posed)
    np.testing.assert_allclose(posed[0], body.pose_points(model, world, model.template)[
        model.anchor_indices], rtol=0, atol=1e-12)


def test_posing_batches_over_leading_axes(toy_model, rng):
    world = body._world_rotations(
        toy_model, as_matrices([axis_angle_exp(rng.normal(scale=0.4, size=3))
                                for _ in range(toy_model.n_joints)]))
    verts = toy_model.template + rng.normal(scale=0.05, size=(3,) + toy_model.template.shape)
    joints = rng.normal(size=(3, toy_model.n_joints, 3))
    stacked = body.pose_points(toy_model, world, verts)
    for m in range(len(verts)):
        np.testing.assert_allclose(
            stacked[m], body.pose_points(toy_model, world, verts[m]), atol=1e-14)
    stacked = body._chain_positions(toy_model, world, joints)
    for m in range(len(joints)):
        np.testing.assert_allclose(
            stacked[m], body._chain_positions(toy_model, world, joints[m]), atol=1e-14)
    # a (B,K,3,3) stack of world rotations: paired with the stacked rest
    # points, and broadcast against them on a new axis
    rel = np.stack([as_matrices([axis_angle_exp(rng.normal(scale=0.4, size=3))
                                 for _ in range(toy_model.n_joints)]) for _ in range(3)])
    worlds = body._world_rotations(toy_model, rel)
    for m in range(len(rel)):
        np.testing.assert_array_equal(worlds[m], body._world_rotations(toy_model, rel[m]))
    paired = body.pose_points(toy_model, worlds, verts)
    crossed = body.pose_points(toy_model, worlds[:, None], verts)
    for m in range(len(rel)):
        np.testing.assert_allclose(
            paired[m], body.pose_points(toy_model, worlds[m], verts[m]), atol=1e-14)
        for n in range(len(verts)):
            np.testing.assert_allclose(
                crossed[m, n], body.pose_points(toy_model, worlds[m], verts[n]), atol=1e-14)
    paired = body._chain_positions(toy_model, worlds, joints)
    crossed = body._chain_positions(toy_model, worlds[:, None], joints)
    for m in range(len(rel)):
        np.testing.assert_allclose(
            paired[m], body._chain_positions(toy_model, worlds[m], joints[m]), atol=1e-14)
        for n in range(len(joints)):
            np.testing.assert_allclose(
                crossed[m, n], body._chain_positions(toy_model, worlds[m], joints[n]),
                atol=1e-14)


def test_fk_identity_is_template(toy_model):
    state = body.BodyState([Rotation.identity()] * toy_model.n_joints,
                           np.zeros(toy_model.n_shape), np.zeros(3))
    v, j = body.forward_kinematics(toy_model, state)
    np.testing.assert_allclose(v, toy_model.template, atol=1e-12)
    np.testing.assert_allclose(j, body.rest_joints(toy_model,
                                                   np.zeros(toy_model.n_shape)),
                               atol=1e-12)


def test_fk_root_rotation_is_rigid(toy_model, rng):
    g = axis_angle_exp(rng.normal(scale=0.7, size=3))
    state = body.BodyState([g] + [Rotation.identity()] * (toy_model.n_joints - 1),
                           np.zeros(toy_model.n_shape), np.zeros(3))
    v, _ = body.forward_kinematics(toy_model, state)
    jr = body.rest_joints(toy_model, np.zeros(toy_model.n_shape))
    expect = (toy_model.template - jr[0]) @ g.matrix().T + jr[0]
    np.testing.assert_allclose(v, expect, atol=1e-10)


def test_shape_blend_linear(toy_model, rng):
    b1 = rng.normal(size=toy_model.n_shape)
    b2 = rng.normal(size=toy_model.n_shape)
    v0 = body.shape_blend(toy_model, np.zeros(toy_model.n_shape))
    va = body.shape_blend(toy_model, b1)
    vb = body.shape_blend(toy_model, b2)
    vab = body.shape_blend(toy_model, b1 + b2)
    np.testing.assert_allclose(vab, va + vb - v0, atol=1e-12)


def test_model_json_roundtrip(toy_model, tmp_path):
    p = tmp_path / "m.json"
    body.save_model(toy_model, p)
    m2 = body.load_model(p)
    np.testing.assert_array_equal(m2.template, toy_model.template)
    np.testing.assert_array_equal(m2.shape_basis, toy_model.shape_basis)
    np.testing.assert_array_equal(m2.joint_regressor, toy_model.joint_regressor)
    np.testing.assert_array_equal(m2.blend_weights, toy_model.blend_weights)
    np.testing.assert_array_equal(m2.parents, toy_model.parents)
    np.testing.assert_array_equal(m2.anchor_indices, toy_model.anchor_indices)
    for f in dataclasses.fields(body.BodyModelDef):
        assert getattr(m2, f.name).dtype == getattr(toy_model, f.name).dtype, f.name


def test_load_rejects_bad_format(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 99}')
    with pytest.raises(body.ModelLoadError):
        body.load_model(p)
    p.write_text("not json at all")
    with pytest.raises(body.ModelLoadError):
        body.load_model(p)


def _corrupt_and_load(toy_model, tmp_path, mutate):
    import json
    p = tmp_path / "m.json"
    body.save_model(toy_model, p)
    doc = json.loads(p.read_text())
    mutate(doc)
    p.write_text(json.dumps(doc))
    return body.load_model(p)


def test_validation_rejects_cycle(toy_model, tmp_path):
    def mutate(doc):
        doc["parents"][1] = 2
        doc["parents"][2] = 1

    with pytest.raises(body.ModelLoadError):
        _corrupt_and_load(toy_model, tmp_path, mutate)


def test_validation_rejects_a_parent_after_its_child(toy_model, tmp_path):
    # the toy model with its non-root joints renumbered in reverse: still a
    # tree rooted at joint 0, but a parent now follows its children
    k = toy_model.n_joints
    order = [0] + list(range(k - 1, 0, -1))        # new joint -> old joint
    new_of = {old: new for new, old in enumerate(order)}

    def mutate(doc):
        doc["parents"] = [-1] + [new_of[int(toy_model.parents[o])] for o in order[1:]]
        doc["joint_regressor"] = [doc["joint_regressor"][o] for o in order]
        doc["blend_weights"] = [doc["blend_weights"][o] for o in order]

    with pytest.raises(body.ModelLoadError):
        _corrupt_and_load(toy_model, tmp_path, mutate)


def test_validation_rejects_nonconvex_regressor(toy_model, tmp_path):
    def mutate(doc):
        doc["joint_regressor"][0] = [2 * x for x in doc["joint_regressor"][0]]

    with pytest.raises(body.ModelLoadError):
        _corrupt_and_load(toy_model, tmp_path, mutate)


def _set(key, index, value):
    def mutate(doc):
        row = doc[key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
    return mutate


@pytest.mark.parametrize("key, mutate", [
    ("parents", _set("parents", (1,), 0.9)),
    ("anchor_indices", lambda doc: doc.update(
        anchor_indices=[a + 0.5 for a in doc["anchor_indices"]])),
    ("anchor_indices", _set("anchor_indices", (0,), True)),
    ("parents", _set("parents", (1,), "0")),
    ("template", _set("template", (0, 0), "0")),
    ("template", _set("template", (3, 1), float("nan"))),
    ("shape_basis", _set("shape_basis", (1, 5), float("inf"))),
    ("anchor_indices", lambda doc: doc.update(anchor_indices=[]))],
    ids=["fractional-parent", "half-shifted-anchors", "bool-anchor", "quoted-parent",
         "quoted-template", "nan-template", "inf-shape-basis", "no-anchors"])
def test_load_rejects_a_model_array_naming_its_key(toy_model, tmp_path, key, mutate):
    # fractional or boolean indices, quoted numbers, non-finite values, no anchor
    with pytest.raises(body.ModelLoadError, match=f"^{key} must "):
        _corrupt_and_load(toy_model, tmp_path, mutate)


def test_segment_of_vertex_covers_joints(toy_model):
    seg = body.segment_of_vertex(toy_model)
    assert set(np.unique(seg[seg >= 0])) == set(range(toy_model.n_joints))


def test_select_anchors_quota_and_determinism(toy_model):
    a = body.select_anchors(toy_model, per_segment_min=2, total=48)
    assert len(a) == 48
    assert len(np.unique(a)) == 48
    seg = body.segment_of_vertex(toy_model)
    counts = np.bincount(seg[a], minlength=toy_model.n_joints)
    assert (counts >= 2).all()
    np.testing.assert_array_equal(a, body.select_anchors(toy_model, 2, 48))


def test_select_anchors_impossible_quota(toy_model):
    with pytest.raises(body.QuotaError):
        body.select_anchors(toy_model, per_segment_min=50, total=48)


def test_toy_model_valid_and_deterministic():
    m1 = body.make_toy_model()
    m2 = body.make_toy_model()
    np.testing.assert_array_equal(m1.template, m2.template)
    assert m1.n_joints == 8
    # shape directions must not contain a global-scale mode: under
    # perspective projection that trades off exactly against depth
    v0 = m1.template
    for s in range(m1.n_shape):
        d = m1.shape_basis[s].reshape(-1, 3)
        scale_dir = v0 - v0.mean(0)
        scale_dir /= np.linalg.norm(scale_dir)
        cos = abs(np.sum(d / np.linalg.norm(d) * scale_dir))
        assert cos < 0.9
