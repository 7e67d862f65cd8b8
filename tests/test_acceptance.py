"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single `[PASS]/[FAIL] criterion N` line (unbuffered,
bypassing capture) and asserts the same condition, so the gate reads as a
checklist in any pytest run.  Tolerances and budgets are stated inline.
"""

import dataclasses
import json
import sys
import time

import numpy as np

from flowpose import autodiff as ag
from flowpose import body, checkpoint, cli, distributions as dist
from flowpose import flow as fl
from flowpose import metrics, solver, synth, training
from flowpose.rotation import (Rotation, as_matrices, axis_angle_exp,
                               axis_angle_log, geodesic_distance, quat_to_matrices)


def _line(n, ok, detail):
    import conftest
    tag = "PASS" if ok else "FAIL"
    msg = f"[{tag}] criterion {n}: {detail}"
    conftest.ACCEPTANCE_LINES.append(msg)
    print(msg, flush=True)
    assert ok, f"criterion {n}: {detail}"


def _perturbed_flow(rng, scale, **kw):
    cfg = fl.FlowConfig(n_joints=kw.pop("n_joints", 1), context_dim=3,
                        shape_dim=1, k_transforms=kw.pop("k_transforms", 8),
                        n_sets=2, channels=16, blocks=1, **kw)
    model = fl.FlowModel(cfg, rng)
    for k, node in zip(model.params.names(), model.params.leaves()):
        if k.endswith("w_out"):
            node.value = node.value + scale * rng.normal(size=node.value.shape)
    return model


def _orthonormal_pairs(rng, n):
    u1 = rng.normal(size=(n, 3))
    u1 /= np.linalg.norm(u1, axis=1, keepdims=True)
    t = rng.normal(size=(n, 3))
    u2 = t - np.sum(t * u1, axis=1, keepdims=True) * u1
    u2 /= np.linalg.norm(u2, axis=1, keepdims=True)
    return u1, u2


def test_criterion_1_mobius_roundtrip():
    # 10,000 random (frame, omega, weight) configurations; raw omegas drawn
    # at the scale a trained conditioner produces (N(0, 0.3^2)); forward
    # angular roundtrip error < 1e-4, bisection <= 18 iterations, < 10 s.
    rng = np.random.default_rng(0)
    n, k = 10_000, 16
    t0 = time.time()
    u1, u2 = _orthonormal_pairs(rng, n)
    raw = rng.normal(scale=0.3, size=(3, n, k))
    ox, oy, oz = fl._constrain_omega_batch(np.concatenate(raw, axis=1), k)
    ox, oy, oz = (np.asarray(ag.as_array(o)) for o in (ox, oy, oz))
    logits = rng.normal(size=(n, k))
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    moved, _ = fl._mobius_fwd_batch(u1, u2, ox, oy, oz, w)
    moved = np.asarray(ag.as_array(moved))
    rec, iters, _ = fl._mobius_inv_batch(moved, u1, ox, oy, oz, w)
    again, _ = fl._mobius_fwd_batch(u1, rec, ox, oy, oz, w)
    again = np.asarray(ag.as_array(again))
    ang = np.arccos(np.clip(np.sum(again * moved, axis=1), -1.0, 1.0))
    dt = time.time() - t0
    ok = ang.max() < 1e-4 and iters.max() <= 18 and dt < 10.0
    _line(1, ok, f"max roundtrip {ang.max():.2e} rad, "
          f"max iters {iters.max()}, {dt:.1f}s")


def test_criterion_2_volume_element():
    # analytic coupling logdet vs central-difference 3x3 chart Jacobian,
    # 1000 cases, 1e-4 relative; tape gradients of logdet < 1e-5; < 60 s.
    rng = np.random.default_rng(1)
    model = _perturbed_flow(rng, 0.2)
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        r = dist.uniform_sample(rng)
        ctx = rng.normal(size=3)
        out0, ld = model.coupling_block(r, ctx)
        jac = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            op = model.coupling_block(r.compose(axis_angle_exp(e)), ctx)[0]
            om = model.coupling_block(r.compose(axis_angle_exp(-e)), ctx)[0]
            jac[:, j] = (axis_angle_log(out0.inverse().compose(op))
                         - axis_angle_log(out0.inverse().compose(om))) / (2 * h)
        worst = max(worst, abs(np.linalg.det(jac) - np.exp(ld)) / np.exp(ld))

    u1, u2 = _orthonormal_pairs(rng, 1)
    ox = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    oy = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    oz = ag.leaf(rng.normal(scale=0.5, size=(1, 6)))
    raw_w = ag.leaf(rng.normal(size=(1, 6)))

    def f():
        cx, cy, cz = fl._constrain_omega_batch(ag.concat([ox, oy, oz], axis=1), 6)
        _, logdet = fl._mobius_fwd_batch(u1, u2, cx, cy, cz,
                                         ag.softmax(raw_w))
        return ag.reduce_sum(logdet)

    gerr = ag.finite_diff_check(f, [ox, oy, oz, raw_w])
    dt = time.time() - t0
    ok = worst < 1e-4 and gerr < 1e-5 and dt < 60.0
    _line(2, ok, f"max rel det err {worst:.2e}, tape grad err {gerr:.2e}, "
          f"{dt:.1f}s")


def test_criterion_3_exact_density():
    # Monte Carlo normalization of exp(flow_log_prob) over 500k uniform
    # rotations per context, 5 contexts, within 2%; < 5 min.
    rng = np.random.default_rng(2)
    model = _perturbed_flow(rng, 0.1)
    t0 = time.time()
    n, chunk = 500_000, 100_000
    zs = []
    p = model.param_values()
    for c in range(5):
        ctx = rng.normal(size=3)
        rows = fl.joint_context_rows(model, p, ctx[None])
        acc = 0.0
        for _ in range(n // chunk):
            q = dist.uniform_quaternions(chunk, rng)
            m = quat_to_matrices(q)
            lp = model.log_prob_rows(p, m[:, :, 0], m[:, :, 1], rows)
            acc += np.exp(np.asarray(ag.as_array(lp))).sum()
        zs.append(acc / n)
    dt = time.time() - t0
    zs = np.array(zs)
    ok = np.abs(zs - 1.0).max() < 0.02 and dt < 300.0
    _line(3, ok, "Z = [" + ", ".join(f"{z:.4f}" for z in zs)
          + f"], {dt:.0f}s")


def test_criterion_4_toy_multimodal_fit():
    # four well-separated target rotations at a fixed context: >= 90% of
    # 10k samples within 20 deg of a mode, each mode 25% +- 10%, NLL < 0;
    # <= 20k gradient steps and < 30 min on one core.
    rng = np.random.default_rng(12)
    targets = [dist.uniform_sample(rng) for _ in range(4)]
    sep = min(np.degrees(geodesic_distance(targets[i], targets[j]))
              for i in range(4) for j in range(i + 1, 4))
    assert sep > 60.0  # the fixed seed gives well-separated modes
    t0 = time.time()
    _, rep = training.fit_toy_distribution(targets, steps=3000, batch=128,
                                           seed=12)
    dt = time.time() - t0
    mass = np.array(rep["per_mode_mass"])
    ok = (rep["captured_fraction"] >= 0.90
          and np.all(np.abs(mass - 0.25) <= 0.10)
          and rep["nll_after"] < 0.0
          and dt < 1800.0)
    _line(4, ok, f"captured {rep['captured_fraction']:.1%}, per-mode "
          + "/".join(f"{m:.2f}" for m in mass)
          + f", NLL {rep['nll_after']:.2f}, {dt:.0f}s")


def test_criterion_5_base_distributions():
    # histogram KL < 0.05 nats for kappa in {1,2,3}; IGSO3 quadrature
    # normalization within 1%; samples on the canonical hemisphere; < 2 min.
    rng = np.random.default_rng(3)
    t0 = time.time()
    kls, hemi = [], True
    for kappa in (1.0, 2.0, 3.0):
        d = dist.ProjectedIsoGaussian(Rotation.identity(), kappa)
        s = dist.pig_sample_batch(d, 60_000, rng)
        hemi &= bool((s[:, 0] >= 0).all())
        edges = np.linspace(0.0, 1.0, 41)
        hist, _ = np.histogram(np.abs(s[:, 0]), bins=edges)
        p = hist / hist.sum()
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.exp(dist.pig_logpdf_from_qdot(centers, kappa))
        marg = dens * (4.0 / np.pi) * np.sqrt(1 - centers**2)
        qd = marg / marg.sum()
        mask = p > 0
        kls.append(float(np.sum(p[mask] * np.log(p[mask] / qd[mask]))))
    from scipy import integrate
    z, _ = integrate.quad(
        lambda a: np.exp(dist.igso3_logpdf(a, 0.5)) * (1 - np.cos(a)) / np.pi,
        1e-9, np.pi, limit=300)
    dt = time.time() - t0
    ok = max(kls) < 0.05 and abs(z - 1.0) < 0.01 and hemi and dt < 120.0
    _line(5, ok, f"max KL {max(kls):.4f}, IGSO3 Z {z:.4f}, "
          f"hemisphere {hemi}, {dt:.0f}s")


def test_criterion_6_solver_exactness():
    # 100 noiseless scenes: GT init gives translation < 1e-4 m and residual
    # < 1e-6 px; 10-degree per-joint perturbation with 2 relinearizations
    # gives residual < 1 px; < 60 s.
    model = body.make_toy_model()
    rng = np.random.default_rng(4)
    t0 = time.time()
    k_mat = np.array([[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])
    n_anchor = len(model.anchor_indices)
    t_err, res0, res10 = [], [], []
    for _ in range(100):
        pose = [axis_angle_exp(rng.normal(scale=0.3, size=3))
                for _ in range(model.n_joints)]
        beta = rng.normal(scale=0.5, size=model.n_shape)
        t = np.array([0.0, 0.0, 3.0]) + rng.uniform(-0.2, 0.2, 3)
        obs = solver.Observation(np.zeros((n_anchor, 2)), np.ones(n_anchor),
                                 np.ones(n_anchor), k_mat)
        obs = dataclasses.replace(obs, anchors_2d=solver.reproject(
            model, solver._world_rotations(model, as_matrices(pose)), beta, t, obs))
        r = solver.solve_single_view(model, pose, obs,
                                     solver.SolveConfig(max_relinearizations=0))
        t_err.append(np.linalg.norm(r.translation - t))
        res0.append(r.weighted_rms_residual)
        axes = rng.normal(size=(model.n_joints, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        init = [p.compose(axis_angle_exp(np.radians(10.0) * a))
                for p, a in zip(pose, axes)]
        r2 = solver.solve_single_view(
            model, init, obs, solver.SolveConfig(max_relinearizations=2))
        res10.append(r2.weighted_rms_residual)
    dt = time.time() - t0
    ok = (max(t_err) < 1e-4 and max(res0) < 1e-6 and max(res10) < 1.0
          and dt < 60.0)
    _line(6, ok, f"max t err {max(t_err):.1e} m, max residual {max(res0):.1e}"
          f" px, max 10-deg residual {max(res10):.2e} px, {dt:.0f}s")


def test_criterion_7_multi_view_trend():
    # depth-ambiguous rig, 200 scenes: 2-view absolute MPJPE < 0.5x 1-view,
    # root-aligned MPJPE within 10%; < 5 min.
    model = body.make_toy_model()
    t0 = time.time()
    ds = synth.gen_dataset(model, 200, synth.depth_ambiguous_rig(2),
                           synth.NoiseSpec(0.5), seed=7)
    rep = metrics.multi_view_trend(model, ds, init_sigma_deg=8.0, seed=7)
    dt = time.time() - t0
    ratio = rep["abs_2v"] / rep["abs_1v"]
    rel_ratio = rep["rel_2v"] / rep["rel_1v"]
    ok = ratio < 0.5 and rel_ratio < 1.1 and dt < 300.0
    _line(7, ok, f"abs {rep['abs_1v']:.4f} -> {rep['abs_2v']:.4f} m "
          f"(x{ratio:.3f}), rel x{rel_ratio:.3f}, {dt:.0f}s")


def test_criterion_8_min_vs_mode(trained_model):
    # trained model, n = 100 samples per scene: min-of-100 MPJPE <= mode
    # MPJPE on every scene, and the mean margin is positive.
    model, dataset, flow, encode = trained_model
    rep = metrics.evaluate(flow, encode, model, dataset, n_samples=100,
                           rng_seed=0)
    per = rep["per_scene"]
    modes = np.array(per["mpjpe_mode"])
    mins = np.array(per["mpjpe_min"])
    strict = bool((mins <= modes + 1e-12).all())
    margin = float((modes - mins).mean())
    ok = strict and margin > 0.0
    _line(8, ok, f"min<=mode on {len(mins)}/{len(mins)} scenes, "
          f"mean margin {margin:.4f} m")


def test_criterion_9_laplacian_nll():
    # stationary point of the NLL in the scale is the per-anchor absolute
    # residual; tape gradients at 1e-6.
    rng = np.random.default_rng(5)
    resid = rng.normal(size=(8, 2))
    scale = ag.leaf(np.abs(resid).sum(axis=1))
    nll = solver.laplacian_nll(ag.leaf(resid), scale, np.zeros_like(resid))
    ag.backward(nll)
    stationary = float(np.abs(scale.grad).max())
    pred = ag.leaf(rng.normal(size=(8, 2)))
    sc = ag.leaf(rng.uniform(0.5, 2.0, size=8))
    gt = rng.normal(size=(8, 2))
    gerr = ag.finite_diff_check(
        lambda: solver.laplacian_nll(pred, sc, gt), [pred, sc])
    ok = stationary < 1e-10 and gerr < 1e-6
    _line(9, ok, f"stationary grad {stationary:.1e}, fd err {gerr:.1e}")


def test_criterion_10_determinism(tmp_path):
    # selftest, gen-data, short train, and eval byte-reproducible across
    # two runs with the same seed (single-threaded).
    from flowpose import selftest as selftest_mod
    rep_a = json.dumps(selftest_mod.run_selftest(0))
    rep_b = json.dumps(selftest_mod.run_selftest(0))

    ws = tmp_path
    assert cli.main(["gen-model", "--out", str(ws)]) == 0
    gen = ws / "gen.json"
    gen.write_text(json.dumps({"model": str(ws / "model.json"),
                               "n_scenes": 8, "views": 1}))
    tr = ws / "train.json"
    tr.write_text(json.dumps({"model": str(ws / "model.json"),
                              "dataset": str(ws / "a" / "dataset.jsonl"),
                              "train": {"phase1_epochs": 2,
                                        "phase2_epochs": 1}}))
    outputs = {}
    for run in ("a", "b"):
        out = ws / run
        assert cli.main(["gen-data", "--config", str(gen), "--seed", "3",
                         "--out", str(out)]) == 0
        assert cli.main(["train", "--config", str(tr), "--seed", "0",
                         "--out", str(out), "--no-timestamp"]) == 0
        ev = ws / f"eval_{run}.json"
        ev.write_text(json.dumps({"model": str(ws / "model.json"),
                                  "dataset": str(out / "dataset.jsonl"),
                                  "checkpoint": str(out / "checkpoint.json"),
                                  "n_samples": 5}))
        assert cli.main(["eval", "--config", str(ev), "--seed", "0",
                         "--out", str(out)]) == 0
        outputs[run] = tuple((out / f).read_bytes() for f in
                             ("dataset.jsonl", "checkpoint.json",
                              "train_log.csv", "metrics.json"))
    same = outputs["a"] == outputs["b"] and rep_a == rep_b
    _line(10, same, "selftest, gen-data, train, eval byte-identical"
          if same else "outputs differ between identical runs")
