"""Rotation primitives checked against scipy.spatial.transform."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation as ScipyRot

from flowpose.flow import _frame_matrices
from flowpose.rotation import _exp_quats
from flowpose.rotation import (DegenerateMeanError, DegenerateProjectionError,
                               InvalidRotationError, Rotation, as_matrices, axis_angle_exp,
                               axis_angle_log, cross3, exp_matrices, geodesic_distance,
                               matrix_to_quat, matrix_to_quats, quat_multiply, quat_to_matrices,
                               rotation_mean, special_orthogonalize_matrices)

unit_vec3 = st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
    lambda v: 0.1 < np.linalg.norm(v) < 3.0)


def _scipy_from(r):
    # scipy stores quaternions (x, y, z, w); ours are (w, x, y, z)
    w, x, y, z = r.q
    return ScipyRot.from_quat([x, y, z, w])


def test_matrix_matches_scipy(rng):
    for _ in range(50):
        q = rng.normal(size=4)
        r = Rotation(q / np.linalg.norm(q))
        np.testing.assert_allclose(r.matrix(), _scipy_from(r).as_matrix(),
                                   atol=1e-12)


def test_compose_matches_scipy(rng):
    for _ in range(20):
        qa, qb = rng.normal(size=4), rng.normal(size=4)
        a = Rotation(qa / np.linalg.norm(qa))
        b = Rotation(qb / np.linalg.norm(qb))
        np.testing.assert_allclose(
            a.compose(b).matrix(),
            _scipy_from(a).as_matrix() @ _scipy_from(b).as_matrix(),
            atol=1e-12)


def test_known_rotation_matrix():
    # 90 degrees about z: x -> y
    r = axis_angle_exp([0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(r.matrix() @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               atol=1e-12)


def test_double_cover_canonicalized():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    r = Rotation(q)
    assert r.q[np.nonzero(r.q)[0][0]] > 0
    assert r == Rotation(-q)


def test_invalid_quaternion_rejected():
    with pytest.raises(InvalidRotationError):
        Rotation([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidRotationError):
        Rotation([np.nan, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("q", [[1.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0, 5.0], [[1.0, 0.0, 0.0, 0.0]]])
def test_quaternion_of_the_wrong_shape_rejected(q):
    shape = np.shape(q)
    with pytest.raises(InvalidRotationError, match=re.escape(f"got {shape}")):
        Rotation(q)


def test_non_unit_quaternion_normalized():
    r = Rotation([2.0, 0.0, 0.0, 0.0])
    assert r == Rotation.identity()


@given(st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_exp_log_roundtrip(v):
    v = np.asarray(v)
    if np.linalg.norm(v) > 2.8:
        v = v * 2.8 / np.linalg.norm(v)
    np.testing.assert_allclose(axis_angle_log(axis_angle_exp(v)), v,
                               atol=1e-9)


def test_exp_matches_scipy(rng):
    for _ in range(20):
        v = rng.normal(scale=0.8, size=3)
        np.testing.assert_allclose(axis_angle_exp(v).matrix(),
                                   ScipyRot.from_rotvec(v).as_matrix(),
                                   atol=1e-12)


def test_geodesic_distance_known():
    a = Rotation.identity()
    b = axis_angle_exp([0.7, 0.0, 0.0])
    assert abs(geodesic_distance(a, b) - 0.7) < 1e-10


def test_geodesic_triangle_inequality(rng):
    for _ in range(30):
        qs = [rng.normal(size=4) for _ in range(3)]
        a, b, c = [Rotation(q / np.linalg.norm(q)) for q in qs]
        assert (geodesic_distance(a, c) <= geodesic_distance(a, b)
                + geodesic_distance(b, c) + 1e-9)


def test_matrix_quat_roundtrip(rng):
    for _ in range(50):
        q = rng.normal(size=4)
        r = Rotation(q / np.linalg.norm(q))
        assert geodesic_distance(r, matrix_to_quat(quat_to_matrices(r.q))) < 1e-7


def test_matrix_to_quat_batch_bitwise(rng):
    # near-half-turns about x, y and z take Shepperd's three diagonal
    # pivots; small and random rotations the trace pivot
    axes = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    mats = [axis_angle_exp(3.0 * a / np.linalg.norm(a)).matrix() for a in axes]
    mats += [axis_angle_exp(0.1 * rng.normal(size=3)).matrix()]
    mats += [axis_angle_exp(rng.normal(size=3)).matrix() for _ in range(200)]
    mats = np.stack(mats)
    d = np.diagonal(mats, axis1=1, axis2=2)
    tr = d.sum(axis=1)
    branch = np.where(tr > 0, 0, np.where((d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2]), 1,
                                          np.where(d[:, 1] > d[:, 2], 2, 3)))
    assert set(branch[:4]) == {0, 1, 2, 3}
    got = matrix_to_quats(mats)
    assert len(got) == len(mats)
    for q, m in zip(got, mats):
        assert np.array_equal(q, matrix_to_quat(m).q)


def _shepperd_reference(m):
    return Rotation(_shepperd_quat(m))


def _shepperd_quat(m):
    """Shepperd's method one matrix at a time, branch by branch, unnormalized."""
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
             (m[1, 0] - m[0, 1]) / s)
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
             (m[0, 2] + m[2, 0]) / s)
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
             (m[1, 2] + m[2, 1]) / s)
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
             (m[1, 2] + m[2, 1]) / s, 0.25 * s)
    return np.array(q)


def test_matrix_to_quat_batch_matches_shepperd_reference(rng):
    # near-half-turns about x, y and z take the three diagonal pivots
    axes = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    vs = np.concatenate([3.0 * axes / np.linalg.norm(axes, axis=1, keepdims=True),
                         rng.normal(size=(200, 3))])
    mats = np.stack([axis_angle_exp(v).matrix() for v in vs])
    for q, m in zip(matrix_to_quats(mats), mats):
        assert np.array_equal(q, _shepperd_reference(m).q)


def test_matrix_to_quat_batch_rejects_non_rotations(rng):
    good = np.stack([axis_angle_exp(rng.normal(size=3)).matrix() for _ in range(3)])
    skewed = good.copy()
    skewed[1, 0, 0] += 1e-3
    with pytest.raises(InvalidRotationError):
        matrix_to_quats(skewed)
    reflected = good.copy()
    reflected[2] = -reflected[2]
    with pytest.raises(InvalidRotationError):
        matrix_to_quats(reflected)
    with pytest.raises(InvalidRotationError):
        matrix_to_quats(good[0])


def test_quat_to_matrices_bitwise(rng):
    rots = [[Rotation(q) for q in row] for row in rng.normal(size=(12, 5, 4))]
    q = np.array([[r.q for r in row] for row in rots])
    stack = quat_to_matrices(q)
    assert stack.shape == (12, 5, 3, 3)
    for i in range(12):
        assert np.array_equal(quat_to_matrices(q[i]), stack[i])
        for k in range(5):
            assert np.array_equal(stack[i, k], rots[i][k].matrix())


def test_quat_multiply_bitwise_compose(rng):
    a = [Rotation(q) for q in rng.normal(size=(50, 4))]
    b = [Rotation(q) for q in rng.normal(size=(50, 4))]
    prods = quat_multiply(np.stack([r.q for r in a]), np.stack([r.q for r in b]))
    for ra, rb, p in zip(a, b, prods):
        assert Rotation(p) == ra.compose(rb)


def _exp_reference(v):
    """axis_angle_exp as one scalar formula, branch by branch."""
    v = np.asarray(v, dtype=np.float64)
    angle = np.linalg.norm(v)
    half = 0.5 * angle
    if angle < 1e-12:
        return Rotation((1.0 - half * half / 2.0, *(0.5 * v)))
    return Rotation((np.cos(half), *(np.sin(half) * (v / angle))))


def test_axis_angle_exp_bitwise_reference(rng):
    vs = np.concatenate([rng.normal(size=(500, 3)) * s for s in (1e-14, 1e-7, 0.3, 3.0)])
    vs = np.concatenate([vs, np.zeros((1, 3))])
    assert (np.linalg.norm(vs[:500], axis=1) < 1e-12).all()
    for v in vs:
        assert axis_angle_exp(v) == _exp_reference(v)


def test_exp_matrices_match_axis_angle_exp(rng):
    vs = rng.normal(size=(300, 3))
    near_pi = vs[:100] * (np.pi - 1e-9) / np.linalg.norm(vs[:100], axis=1, keepdims=True)
    vs = np.concatenate([vs, near_pi, 1e-13 * vs[:10], np.zeros((3, 3))])
    got = exp_matrices(vs.reshape(-1, 7, 3)).reshape(-1, 3, 3)
    want = np.stack([axis_angle_exp(v).matrix() for v in vs])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_as_matrices_returns_an_array_as_is(rng):
    rots = [axis_angle_exp(rng.normal(size=3)) for _ in range(4)]
    mats = as_matrices(rots)
    assert as_matrices(mats) is mats
    assert np.array_equal(mats, np.stack([r.matrix() for r in rots]))


def svd3(m):
    """Reference SVD of one 3x3 matrix: descending singular values, and the
    largest-|entry| of each U column positive."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    for i in range(3):
        k = np.argmax(np.abs(u[:, i]))
        if u[k, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    return u, s, vt.T


def test_svd3_reconstruction(rng):
    m = rng.normal(size=(3, 3))
    u, s, v = svd3(m)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-12)


def test_special_orthogonalize_projects(rng):
    r = axis_angle_exp(rng.normal(scale=0.5, size=3))
    noisy = r.matrix() + 0.05 * rng.normal(size=(3, 3))
    m = special_orthogonalize_matrices(noisy)
    np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(m) > 0
    # projection of a clean rotation is that rotation
    assert geodesic_distance(matrix_to_quat(special_orthogonalize_matrices(r.matrix())), r) < 1e-7


def test_special_orthogonalize_matrices_matches_svd3_projection(rng):
    m = rng.normal(size=(4, 5, 3, 3))
    assert (np.linalg.det(m) < 0).any() and (np.linalg.det(m) > 0).any()
    q = special_orthogonalize_matrices(m)
    for mi, qi in zip(m.reshape(-1, 3, 3), q.reshape(-1, 3, 3)):
        u, _, v = svd3(mi)
        ref = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ v.T))]) @ v.T
        np.testing.assert_allclose(qi, ref, rtol=0, atol=1e-15)
    singular = m[0].copy()
    singular[2] = np.outer([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])
    with pytest.raises(DegenerateProjectionError):
        special_orthogonalize_matrices(singular)


def test_frame_complete_orthonormal(rng):
    u1 = rng.normal(size=3)
    u1 /= np.linalg.norm(u1)
    t = rng.normal(size=3)
    u2 = t - (t @ u1) * u1
    u2 /= np.linalg.norm(u2)
    m = _frame_matrices(u1, u2)
    np.testing.assert_allclose(m[:, 0], u1, atol=1e-12)
    np.testing.assert_allclose(m[:, 1], u2, atol=1e-12)
    assert abs(np.linalg.det(m) - 1) < 1e-12


def test_rotation_mean_chordal(rng):
    base = axis_angle_exp(rng.normal(scale=0.5, size=3))
    rots = [base.compose(axis_angle_exp(rng.normal(scale=0.05, size=3)))
            for _ in range(40)]
    m = matrix_to_quat(rotation_mean(rots))
    assert geodesic_distance(m, base) < 0.05
    # scipy's quaternion mean is the same chordal L2 optimum
    qs = np.array([[r.q[1], r.q[2], r.q[3], r.q[0]] for r in rots])
    sp = ScipyRot.from_quat(qs).mean()
    w_last = sp.as_quat()
    assert geodesic_distance(m, Rotation([w_last[3], *w_last[:3]])) < 1e-8


def test_rotation_mean_of_pose_stacks_is_per_joint(rng):
    # V poses of K joints (V,K,3,3) average joint by joint, as the plain sum over V
    mats = np.stack([[axis_angle_exp(0.3 * rng.normal(size=3)).matrix() for _ in range(5)]
                     for _ in range(3)])
    mean = rotation_mean(mats)
    assert mean.shape == (5, 3, 3)
    np.testing.assert_array_equal(mean, special_orthogonalize_matrices(mats.sum(axis=0)))
    for j in range(5):
        np.testing.assert_allclose(mean[j], rotation_mean(list(map(matrix_to_quat, mats[:, j]))),
                                   rtol=0, atol=1e-12)


def test_rotation_mean_degenerate():
    a = Rotation.identity()
    b = axis_angle_exp([np.pi, 0.0, 0.0])
    # identity plus a half turn sums to a rank-deficient matrix
    with pytest.raises(DegenerateMeanError):
        rotation_mean([a, b])


@pytest.mark.parametrize("shapes", [((128, 3), (128, 3)), ((100_000, 3), (100_000, 3)),
                                    ((1, 3), (5, 3)), ((4, 2, 3), (4, 2, 3))])
def test_cross3_equals_np_cross(shapes):
    rng = np.random.default_rng(0)
    a, b = (rng.normal(size=s) for s in shapes)
    np.testing.assert_array_equal(cross3(a, b), np.cross(a, b))


# The forms these kernels replaced, kept as bit-for-bit references.
SIZES = [0, 1, 8, 808, 16384]


def _quat_to_matrices_reference(q):
    """Nine entries, each from its own products, stacked."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                  2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                  2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return m.reshape(q.shape[:-1] + (3, 3))


def _exp_quats_reference(v):
    """Every row through np.where, the series and the closed form alike."""
    angle = np.sqrt(np.vecdot(v, v))
    half = 0.5 * angle
    small = angle < 1e-12
    w = np.where(small, 1.0 - half * half / 2.0, np.cos(half))
    axis = v / np.where(small, 1.0, angle)[..., None]
    xyz = np.where(small[..., None], 0.5 * v, np.sin(half)[..., None] * axis)
    return np.concatenate([w[..., None], xyz], axis=-1)


def _canonical_reference(q):
    """One quaternion at a time: divide by its norm, then w > 0, or for
    w = 0 the first nonzero component positive."""
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q)
    lead = next((v for v in q[1:] if v != 0.0), 0.0)
    if q[0] < 0.0 or (q[0] == 0.0 and lead < 0.0):
        q = -q
    return q


def _assert_bitwise(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _half_turn_quats():
    """w = 0 quaternions whose leading components are zero, of both signs."""
    return np.array([[0.0, 0.0, -1.0, 2.0], [0.0, 0.0, 0.0, -3.0], [-0.0, 0.0, 1.0, 0.0],
                     [0.0, -0.0, 2.0, -1.0], [-0.0, -0.0, -0.0, -1.0], [0.0, 0.0, 0.0, 1.0],
                     [-0.0, -2.0, 0.0, 0.0], [0.0, 1e-300, -1.0, 0.0]])


@pytest.mark.parametrize("n", SIZES)
def test_quat_to_matrices_matches_the_nine_entry_form(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    _assert_bitwise(quat_to_matrices(q), _quat_to_matrices_reference(q))
    pairs = np.stack([q, q[::-1]], axis=1)         # leading axes (n,2)
    _assert_bitwise(quat_to_matrices(pairs), _quat_to_matrices_reference(pairs))
    w0 = _half_turn_quats()
    _assert_bitwise(quat_to_matrices(w0), _quat_to_matrices_reference(w0))


@pytest.mark.parametrize("n", SIZES)
def test_exp_kernels_match_the_where_form(rng, n):
    v = rng.normal(size=(n, 3))
    _assert_bitwise(_exp_quats(v), _exp_quats_reference(v))
    q = _exp_quats_reference(v)
    _assert_bitwise(exp_matrices(v),
                    _quat_to_matrices_reference(q / np.sqrt(np.vecdot(q, q))[..., None]))


def test_exp_kernels_match_the_where_form_on_a_mixed_batch(rng):
    # rows below 1e-12 rad take the series, the others the closed form
    v = rng.normal(size=(40, 3))
    v[::3] *= 1e-13
    v[1::7] = 0.0
    v[2] = [-0.0, 0.0, -0.0]
    assert 0 < (np.linalg.norm(v, axis=1) < 1e-12).sum() < len(v)
    for vs in (v, v.reshape(8, 5, 3), v[0]):
        _assert_bitwise(_exp_quats(vs), _exp_quats_reference(vs))
        q = _exp_quats_reference(vs)
        _assert_bitwise(exp_matrices(vs),
                        _quat_to_matrices_reference(q / np.sqrt(np.vecdot(q, q))[..., None]))


@pytest.mark.parametrize("n", SIZES)
def test_matrix_to_quats_matches_per_object_canonicalization(rng, n):
    q = rng.normal(size=(n, 4))
    mats = quat_to_matrices(q / np.linalg.norm(q, axis=1, keepdims=True))
    got = matrix_to_quats(mats)
    assert got.shape == (n, 4)
    want = np.array([_canonical_reference(_shepperd_quat(m)) for m in mats]).reshape(n, 4)
    _assert_bitwise(got, want)
    _assert_bitwise(np.array([matrix_to_quat(m).q for m in mats]).reshape(n, 4), got)


def test_canonicalization_matches_the_per_object_form(rng):
    quats = np.concatenate([_half_turn_quats(), -_half_turn_quats(),
                            rng.normal(size=(200, 4)) * rng.choice([1e-150, 1.0, 1e150],
                                                                   size=(200, 1))])
    for q in quats:
        _assert_bitwise(Rotation(q).q, _canonical_reference(q))
    # half-turn matrices give Shepperd quaternions with w = 0
    w0 = _half_turn_quats()
    mats = quat_to_matrices(w0 / np.linalg.norm(w0, axis=1, keepdims=True))
    for got, m in zip(matrix_to_quats(mats), mats):
        _assert_bitwise(got, _canonical_reference(_shepperd_quat(m)))


def test_rotation_quaternions_are_read_only(rng):
    src = rng.normal(size=4)
    r = Rotation(src)
    with pytest.raises(ValueError):
        r.q[0] = 1.0
    want = r.q.copy()
    src[0] = 5.0                    # the input is copied, not aliased
    np.testing.assert_array_equal(r.q, want)
    batch = [matrix_to_quat(axis_angle_exp(v).matrix()) for v in rng.normal(size=(3, 3))]
    before = batch[1].q.copy()
    with pytest.raises(ValueError):
        batch[0].q[:] = 0.0
    with pytest.raises(ValueError):
        batch[1].q *= 2.0
    np.testing.assert_array_equal(batch[1].q, before)
