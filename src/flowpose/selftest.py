"""Fast invariant suites over every module, callable from the CLI.

Each suite is a list of named checks; failures are collected rather
than raised so one broken invariant doesn't hide the rest.  Everything
is seeded, so the report is byte-reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ag
from . import body, distributions as dist, flow as fl, metrics, nets, solver, synth
from .rotation import (Rotation, as_matrices, axis_angle_exp, axis_angle_log,
                       geodesic_distance, matrix_to_quat, rotation_mean,
                       special_orthogonalize_matrices)


def _suite_rotations(rng):
    checks = []
    for i in range(50):
        r = dist.uniform_sample(rng)
        # arccos near 1 only resolves ~sqrt(eps) angles
        checks.append(("matrix_roundtrip",
                       geodesic_distance(r, matrix_to_quat(r.matrix())) < 1e-6))
    for i in range(50):
        v = rng.normal(scale=0.8, size=3)
        checks.append(("exp_log_roundtrip",
                       np.linalg.norm(axis_angle_log(axis_angle_exp(v)) - v) < 1e-9))
    a, b = dist.uniform_sample(rng), dist.uniform_sample(rng)
    checks.append(("geodesic_symmetry",
                   abs(geodesic_distance(a, b) - geodesic_distance(b, a)) < 1e-12))
    q = special_orthogonalize_matrices(a.matrix() + 0.05 * rng.normal(size=(3, 3)))
    checks.append(("orthogonalize_is_rotation", np.abs(q @ q.T - np.eye(3)).max() < 1e-10))
    checks.append(("mean_of_duplicates",
                   geodesic_distance(matrix_to_quat(rotation_mean([a, a, a])), a) < 1e-6))
    return checks


def _suite_autodiff(rng):
    checks = []
    x = ag.leaf(rng.normal(size=(4, 3)))
    y = ag.leaf(rng.normal(size=3))

    def f():
        return ag.reduce_sum(ag.log(1.0 + ag.absolute(x)) * ag.exp(0.5 * y))

    checks.append(("composite_grad_fd", ag.finite_diff_check(f, [x, y]) < 1e-6))
    m = ag.leaf(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
    proj = rng.standard_normal((3, 3))
    checks.append(("orthogonalize_grad_fd",
                   ag.finite_diff_check(
                       lambda: ag.reduce_sum(ag.special_orthogonalize_op(m)
                                             * proj), [m]) < 1e-5))
    store = nets.ParamStore()
    nets.mlp_init(store, "m", 3, 2, 4, 1, rng, zero_final=False)
    z = ag.leaf(rng.normal(size=(2, 3)))
    w = rng.normal(size=(2, 2))
    checks.append(("mlp_grad_fd",
                   ag.finite_diff_check(
                       lambda: ag.reduce_sum(nets.mlp_apply(store, "m", z, 1) * w),
                       [z] + store.leaves()) < 1e-6))
    return checks


def _suite_distributions(rng):
    checks = []
    for kappa in (1.0, 2.0, 3.0):
        d = dist.ProjectedIsoGaussian(Rotation.identity(), kappa)
        q = dist.uniform_quaternions(40000, rng)
        z = np.exp(dist.pig_logpdf_batch(d, q)).mean()
        checks.append((f"pig_normalization_k{kappa:g}", abs(z - 1) < 0.05))
        s = dist.pig_sample_batch(d, 2000, rng)
        checks.append((f"pig_hemisphere_k{kappa:g}", (s[:, 0] >= 0).all()))
    ang = np.linspace(1e-6, np.pi, 4000)
    dens = np.exp([dist.igso3_logpdf(t, 0.5) for t in ang])
    # angle marginal of normalized Haar is (1 - cos)/pi
    z = np.trapezoid(dens * (1 - np.cos(ang)) / np.pi, ang)
    checks.append(("igso3_normalization", abs(z - 1) < 0.01))
    return checks


def _suite_flow(rng):
    checks = []
    cfg = fl.FlowConfig(n_joints=2, context_dim=4, shape_dim=2,
                        k_transforms=8, n_sets=2, channels=16, blocks=1)
    model = fl.FlowModel(cfg, rng)
    ctx = rng.normal(size=4)
    r, r2 = dist.uniform_sample(rng), dist.uniform_sample(rng)
    lp0 = model.flow_log_prob([r, r2], ctx)
    base = dist.pig_logpdf_batch(model.base, [r.q, r2.q]).sum()
    checks.append(("identity_init_equals_base", abs(lp0 - base) < 1e-9))
    for k, node in zip(model.params.names(), model.params.leaves()):
        if k.endswith("w_out"):
            node.value = node.value + 0.2 * rng.normal(size=node.value.shape)
    out, ld = model.coupling_block(r, ctx)
    rec = model.coupling_block_inverse(out, ctx)
    checks.append(("coupling_roundtrip", geodesic_distance(rec, r) < 5e-4))
    draws = model.flow_sample(ctx, 4, rng)
    for i, (mats, lp) in enumerate(zip(draws.rotations, draws.log_probs)):
        checks.append((f"sample_logprob_consistent_{i}",
                       abs(model.flow_log_prob(mats, ctx) - lp) < 1e-6))
    return checks


def _suite_body(rng):
    checks = []
    m = body.make_toy_model()
    st = body.BodyState([Rotation.identity()] * m.n_joints,
                        np.zeros(m.n_shape), np.zeros(3))
    v, j = body.forward_kinematics(m, st)
    checks.append(("fk_identity", np.abs(v - m.template).max() < 1e-12))
    g = dist.uniform_sample(rng)
    st_rot = body.BodyState([g] + [Rotation.identity()] * (m.n_joints - 1),
                            np.zeros(m.n_shape), np.zeros(3))
    v2, _ = body.forward_kinematics(m, st_rot)
    jr = body.rest_joints(m, np.zeros(m.n_shape))
    expect = (m.template - jr[0]) @ g.matrix().T + jr[0]
    checks.append(("fk_equivariance", np.abs(v2 - expect).max() < 1e-10))
    moved = m.template @ g.matrix().T + np.array([0.1, 0.2, 0.3])
    checks.append(("regressor_commutes_with_rigid",
                   np.abs(m.joint_regressor @ moved
                          - (jr @ g.matrix().T + np.array([0.1, 0.2, 0.3]))).max() < 1e-10))
    a1 = body.select_anchors(m, 2, 32)
    a2 = body.select_anchors(m, 2, 32)
    checks.append(("anchor_determinism", np.array_equal(a1, a2)))
    return checks


def _suite_solver(rng):
    checks = []
    m = body.make_toy_model()
    kk = np.array([[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])
    for i in range(5):
        pose = [axis_angle_exp(rng.normal(scale=0.3, size=3))
                for _ in range(m.n_joints)]
        beta = rng.normal(scale=0.5, size=m.n_shape)
        t = np.array([0, 0, 3.0]) + rng.uniform(-0.2, 0.2, 3)
        obs = solver.Observation(np.zeros((len(m.anchor_indices), 2)),
                                 np.ones(len(m.anchor_indices)),
                                 np.ones(len(m.anchor_indices)), kk)
        obs = dataclasses.replace(obs, anchors_2d=solver.reproject(
            m, solver._world_rotations(m, as_matrices(pose)), beta, t, obs))
        res = solver.solve_single_view(m, pose, obs, solver.SolveConfig())
        checks.append((f"exact_recovery_{i}",
                       np.linalg.norm(res.translation - t) < 1e-6
                       and res.weighted_rms_residual < 1e-8))
    w1 = solver.anchor_weights(np.ones(4), np.ones(4))
    w2 = solver.anchor_weights(2 * np.ones(4), np.ones(4))
    checks.append(("weight_halving", np.allclose(w2 * 2, w1, rtol=1e-5)))
    pred = ag.leaf(np.zeros((6, 2)))
    scale = ag.leaf(0.5 * np.ones(6))
    nll = solver.laplacian_nll(pred, scale, np.zeros((6, 2)))
    checks.append(("laplace_zero_residual", abs(float(ag.as_array(nll))) < 1e-12))
    return checks


def _suite_harness(rng):
    checks = []
    kk = np.array([[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])
    checks.append(("principal_point",
                   np.abs(synth.project(kk, np.eye(3), np.zeros(3),
                                        np.array([[0, 0, 2.0]]))[0]
                          - [320, 240]).max() < 1e-12))
    m = body.make_toy_model()
    rig = synth.standard_rig(1)
    d1 = synth.gen_dataset(m, 3, rig, synth.NoiseSpec(1.0), seed=9)
    d2 = synth.gen_dataset(m, 3, rig, synth.NoiseSpec(1.0), seed=9)
    same = all(np.array_equal(a.views[0].anchors_2d, b.views[0].anchors_2d)
               for a, b in zip(d1, d2))
    checks.append(("dataset_determinism", same))
    pts = rng.normal(size=(8, 3))
    g = dist.uniform_sample(rng)
    moved = 2.0 * pts @ g.matrix().T + np.array([1.0, -2.0, 0.5])
    aligned = metrics.procrustes_align(pts, moved)
    checks.append(("procrustes_recovery", np.abs(aligned - moved).max() < 1e-9))
    return checks


SUITES = {
    "rotations": _suite_rotations,
    "autodiff": _suite_autodiff,
    "distributions": _suite_distributions,
    "flow": _suite_flow,
    "body": _suite_body,
    "solver": _suite_solver,
    "harness": _suite_harness,
}


def run_selftest(seed=0):
    report = {}
    ok = True
    for name, suite in SUITES.items():
        rng = np.random.default_rng(seed)
        checks = suite(rng)
        failures = [c for c, passed in checks if not passed]
        report[name] = {"passed": len(checks) - len(failures),
                        "failed": len(failures),
                        "failures": failures}
        ok &= not failures
    report["ok"] = bool(ok)
    return report


def format_report(report):
    lines = [f"{'suite':<15} {'passed':>7} {'failed':>7}"]
    for name, r in report.items():
        if name == "ok":
            continue
        lines.append(f"{name:<15} {r['passed']:>7} {r['failed']:>7}")
        for f in r["failures"]:
            lines.append(f"    FAIL {f}")
    lines.append("OVERALL: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)
