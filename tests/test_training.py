"""Training loop, toy fit, and checkpointing."""

import dataclasses
import json

import numpy as np
import pytest

from flowpose import autodiff as ag
from flowpose import body, checkpoint, metrics, nets, solver, synth, training
from flowpose.flow import FlowConfig, FlowModel, PoseBatch
from flowpose.rotation import Rotation, as_matrices, axis_angle_exp, geodesic_distance
from flowpose.distributions import uniform_sample


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    model = body.make_toy_model()
    dataset = synth.gen_dataset(model, 16, synth.standard_rig(1),
                                synth.NoiseSpec(1.0), seed=0)
    cfg = training.TrainConfig(phase1_epochs=3, phase2_epochs=1, seed=0)
    flow, extra, log = training.train(model, dataset, cfg)
    return model, dataset, cfg, flow, extra, log


def test_train_losses_finite_and_logged(small_run):
    _, _, cfg, _, _, log = small_run
    assert len(log) == cfg.phase1_epochs + cfg.phase2_epochs
    for row in log:
        for k, v in row.items():
            if isinstance(v, float):
                assert np.isfinite(v), (k, v)
    # phase 2 rows carry the reprojection losses
    assert log[-1]["phase"] == 2
    assert log[-1]["l2d"] > 0


def test_train_improves_pose_nll(small_run):
    _, _, _, _, _, log = small_run
    assert log[-1]["pose_nll"] <= log[0]["pose_nll"] + 1e-9


def test_train_deterministic(small_run):
    model, dataset, cfg, flow, _, log = small_run
    flow2, _, log2 = training.train(model, dataset, cfg)
    for a, b in zip(flow.params.leaves(), flow2.params.leaves()):
        np.testing.assert_array_equal(a.value, b.value)
    assert training.log_to_csv(log) == training.log_to_csv(log2)


def test_encoder_output_is_context(small_run):
    model, dataset, cfg, _, extra, _ = small_run
    encode = training.make_encoder(extra, cfg.blocks)
    ctx = encode(dataset[0].context_features)
    assert ctx.shape == (cfg.context_dim,)
    assert np.isfinite(ctx).all()


def test_log_to_csv_parses(small_run):
    _, _, _, _, _, log = small_run
    csv = training.log_to_csv(log)
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    assert "pose_nll" in header
    assert len(lines) == len(log) + 1


def _phase2_step(small_run, idx, dataset=None):
    """Leaves, scene tensors, contexts, conditioner rows and shape-head
    means of one phase-2 step over the scenes idx (of the run's dataset
    unless another is given)."""
    model, run_data, cfg, flow, extra, _ = small_run
    dataset = run_data if dataset is None else dataset
    leaves = flow.params.leaves() + extra.leaves()
    pdict = dict(zip(flow.params.names() + extra.names(), leaves))
    ctx = nets.mlp_apply(pdict, "enc", np.stack([dataset[i].context_features for i in idx]),
                         cfg.blocks)
    mu, _ = flow.shape_params(pdict, ctx)
    return (leaves, training._scene_tensors(model, dataset), ctx,
            training.joint_context_rows(flow, pdict, ctx), mu)


def _per_scene_mode_losses(flow, model, dataset, idx, ctx, mu):
    """Reference phase-2 terms, scene by scene from `mode_sample`, with an
    explicit pinhole projection on the tape that must match `solver.project`."""
    s = model.n_shape
    rest = np.concatenate([model.template[None], model.shape_basis.reshape(s, -1, 3)])
    l2d = l3d = 0.0
    for row, i in enumerate(idx):
        rec, obs = dataset[i], dataset[i].views[0]
        mode = flow.mode_sample(ag.as_array(ctx)[row])
        world = body._world_rotations(model, as_matrices(mode.joint_rotations))
        mu_i = ag.reshape(mu[row], (-1, 1))
        joints = body._chain_positions(model, world, model.joint_regressor @ rest)
        joints = joints.reshape(1 + s, -1)
        gt_j = body._chain_positions(
            model, body._world_rotations(model, as_matrices(rec.gt_state.pose)),
            body.rest_joints(model, rec.gt_state.shape))
        l3d = l3d + ag.mean(ag.absolute(joints[:1] + ag.reduce_sum(mu_i * joints[1:], axis=0)
                                        - gt_j.reshape(1, -1)))
        anchors = body.pose_points(model, world, rest)[:, model.anchor_indices].reshape(1 + s, -1)
        pts = ag.reshape(anchors[:1] + ag.reduce_sum(mu_i * anchors[1:], axis=0), (-1, 3))
        world_pts = pts + rec.gt_state.translation
        # x @ M as a broadcast product summed over the shared axis
        cam = (ag.reduce_sum(ag.reshape(world_pts, (-1, 3, 1)) * obs.extrinsics_r.T, axis=1)
               + obs.extrinsics_t)
        proj = (ag.reduce_sum(ag.reshape(cam, (-1, 3, 1)) * obs.intrinsics[:, :3].T, axis=1)
                + obs.intrinsics[:, 3])
        px = proj[:, 0:2] / proj[:, 2:3]
        np.testing.assert_allclose(ag.as_array(px), solver.project(
            obs.intrinsics, obs.extrinsics_r, obs.extrinsics_t, ag.as_array(world_pts)),
            rtol=1e-13)
        l2d = l2d + ag.mean(ag.absolute(px - rec.gt_anchors[0]))
    return l2d / len(idx), l3d / len(idx)


def test_mode_shape_losses_match_per_scene_reference(small_run):
    model, run_data, cfg, flow, _, _ = small_run
    idx = np.array([3, 0, 7, 12, 5, 9, 14, 1])
    # the run's cameras, then intrinsics with skew and a nonzero fourth column
    skewed = np.array([[810.0, 12.0, 315.0, 40.0], [0.0, 790.0, 250.0, -25.0], [0, 0, 1, 0]])
    for dataset in (run_data, [dataclasses.replace(rec, views=[dataclasses.replace(
            rec.views[0], intrinsics=skewed)]) for rec in run_data]):
        results = []
        for batched in (True, False):
            leaves, tensors, ctx, ctx_rows, mu = _phase2_step(small_run, idx, dataset)
            if batched:
                l2d, l3d = training._mode_shape_losses(flow, model, tensors, idx, ctx_rows, mu)
            else:
                l2d, l3d = _per_scene_mode_losses(flow, model, dataset, idx, ctx, mu)
            ag.backward(cfg.lambda5 * l2d + cfg.lambda6 * l3d)
            results.append(([float(ag.as_array(l2d)), float(ag.as_array(l3d))],
                             [l.grad for l in leaves]))
        (terms, grads), (ref_terms, ref_grads) = results
        np.testing.assert_allclose(terms, ref_terms, rtol=1e-12)
        assert any(g is not None and np.abs(g).max() > 0 for g in ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert (g is None) == (ref is None)
            if ref is not None:
                np.testing.assert_allclose(g, ref, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_mode_shape_losses_tape_is_independent_of_batch_size(small_run):
    model, _, _, flow, _, _ = small_run
    counts = []
    for idx in (np.array([4, 11]), np.arange(8)):
        _, tensors, _, ctx_rows, mu = _phase2_step(small_run, idx)
        l2d, l3d = training._mode_shape_losses(flow, model, tensors, idx, ctx_rows, mu)
        seen, stack = set(), [l2d + l3d]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
        counts.append(len(seen))
    assert counts[0] == counts[1]


def test_phase2_step_runs_each_rotation_layer_once(small_run, monkeypatch):
    # the log-prob pass and phase 2's mode pass share one rotation-layer
    # pass: a phase-2 step, like a phase-1 step, computes each layer's Q once
    model, dataset, cfg, _, _, _ = small_run
    calls, per_step = [], []
    real_q, real_step = FlowModel._rotation_q, nets.GradientDescent.step

    def counting_q(self, *args):
        calls.append(1)
        return real_q(self, *args)

    def counting_step(self):
        per_step.append(len(calls))
        calls.clear()
        return real_step(self)

    monkeypatch.setattr(FlowModel, "_rotation_q", counting_q)
    monkeypatch.setattr(nets.GradientDescent, "step", counting_step)
    run_cfg = dataclasses.replace(cfg, phase1_epochs=1, phase2_epochs=1)
    _, _, log = training.train(model, dataset, run_cfg)
    assert log[-1]["phase"] == 2 and log[-1]["l2d"] > 0
    steps_per_epoch = -(-len(dataset) // cfg.batch_size)
    assert per_step == [run_cfg.flow_sets] * (2 * steps_per_epoch)


def test_train_rejects_an_empty_dataset(toy_model):
    with pytest.raises(ValueError, match="^dataset must hold at least one scene$"):
        training.train(toy_model, [], training.TrainConfig(phase1_epochs=1, phase2_epochs=0))


def test_checkpoint_roundtrip(small_run, tmp_path):
    model, dataset, cfg, flow, extra, _ = small_run
    p = tmp_path / "ck.json"
    checkpoint.save_checkpoint(p, flow, extra, cfg)
    flow2, extra2, tcfg = checkpoint.load_checkpoint(p)
    for a, b in zip(flow.params.leaves(), flow2.params.leaves()):
        np.testing.assert_array_equal(a.value, b.value)
    for a, b in zip(extra.leaves(), extra2.leaves()):
        np.testing.assert_array_equal(a.value, b.value)
    assert tcfg["seed"] == cfg.seed
    # identical densities after reload
    ctx = np.zeros(cfg.context_dim)
    rng = np.random.default_rng(0)
    r = [uniform_sample(rng) for _ in range(model.n_joints)]
    assert abs(flow.flow_log_prob(r, ctx)
               - flow2.flow_log_prob(r, ctx)) < 1e-12


def test_checkpoint_with_a_global_rotation_head_loads_and_samples(small_run, tmp_path):
    """Checkpoints written while the flow still had its global-rotation
    head hold `head_rot/*` params and `lambda4`; both are ignored."""
    model, _, cfg, flow, extra, _ = small_run
    p = tmp_path / "ck.json"
    checkpoint.save_checkpoint(p, flow, extra, cfg, with_timestamp=False)
    doc = json.loads(p.read_text())
    doc["params"]["head_rot/w_out"] = doc["params"]["head_shape/w_out"]
    doc["train_config"]["lambda4"] = 1.0
    p.write_text(json.dumps(doc))
    flow2, _, tcfg = checkpoint.load_checkpoint(p)
    assert tcfg["lambda4"] == 1.0
    ctx = np.zeros(cfg.context_dim)
    a = flow.flow_sample(ctx, 3, np.random.default_rng(0), include_mode=True)
    b = flow2.flow_sample(ctx, 3, np.random.default_rng(0), include_mode=True)
    for x, y in ((a.rotations, b.rotations), (a.shapes, b.shapes), (a.log_probs, b.log_probs)):
        np.testing.assert_array_equal(x, y)


def test_checkpoint_idempotent_without_timestamp(small_run, tmp_path):
    _, _, cfg, flow, extra, _ = small_run
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save_checkpoint(p1, flow, extra, cfg, with_timestamp=False)
    checkpoint.save_checkpoint(p2, flow, extra, cfg, with_timestamp=False)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 999}')
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_checkpoint(p)


def test_sample_targets_near_modes(rng):
    from flowpose.rotation import Rotation
    targets = [uniform_sample(rng) for _ in range(4)]
    draws = training.sample_targets(targets, 64, noise_kappa=40.0, rng=rng)
    assert draws.shape == (64, 4)
    for q in draws:
        r = Rotation(q)
        assert min(geodesic_distance(r, t) for t in targets) < 0.6


def test_fit_toy_distribution_short_run(rng):
    targets = [uniform_sample(rng) for _ in range(2)]
    flow, report = training.fit_toy_distribution(
        targets, steps=40, batch=32, report_samples=500, seed=0)
    assert report["nll_after"] < report["nll_before"]
    assert 0.0 <= report["captured_fraction"] <= 1.0
    assert len(report["per_mode_mass"]) == 2


def test_fit_toy_distribution_rejects_an_empty_target_list():
    with pytest.raises(ValueError, match="targets must hold at least one rotation"):
        training.fit_toy_distribution([], steps=1, batch=4, report_samples=10)


def test_capture_report_matches_per_pair_geodesic_loop(monkeypatch):
    rng = np.random.default_rng(3)
    # a half-turn target: canonical signs split its neighbours' quaternions
    targets = [uniform_sample(rng) for _ in range(3)] + [Rotation((0.0, 0.6, 0.0, 0.8))]
    draws = [uniform_sample(rng) for _ in range(200)] + [
        t.compose(axis_angle_exp(0.2 * rng.normal(size=3))) for t in targets for _ in range(50)]
    # flow_sample returns a PoseBatch; the loop reads its draws' Rotations
    batch = PoseBatch(np.stack([r.matrix() for r in draws])[:, None],
                      np.zeros((len(draws), 1)), np.zeros(len(draws)))
    monkeypatch.setattr(training.FlowModel, "flow_sample",
                        lambda self, context, n, rng: batch)
    _, report = training.fit_toy_distribution(targets, steps=0, report_samples=len(draws))
    counts, outside = np.zeros(len(targets)), 0
    for r in (s.joint_rotations[0] for s in batch):
        d = [geodesic_distance(r, t) for t in targets]
        j = int(np.argmin(d))
        if d[j] <= np.deg2rad(report["capture_deg"]):
            counts[j] += 1
        else:
            outside += 1
    assert report["captured_fraction"] == 1.0 - outside / len(draws)
    assert report["per_mode_mass"] == (counts / len(draws)).tolist()
    assert report["n_samples"] == len(draws)


def test_nonfinite_loss_aborts():
    model = body.make_toy_model()
    dataset = synth.gen_dataset(model, 4, synth.standard_rig(1),
                                synth.NoiseSpec(1.0), seed=0)
    # a learning rate large enough to overflow parameters to inf
    cfg = training.TrainConfig(phase1_epochs=3, phase2_epochs=0, lr=1e200,
                               seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(training.TrainingAborted):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            training.train(model, dataset, cfg)


@pytest.mark.parametrize("opt_cls", [nets.Adam, nets.GradientDescent])
def test_optimizer_skips_leaves_without_gradient(opt_cls):
    """A leaf whose grad is None is left alone: its value (and Adam's
    moments for it) stay put, and the other leaves step exactly as they
    would without it, clip norm included."""
    rng = np.random.default_rng(0)
    vals = [rng.normal(size=(3, 2)), rng.normal(size=4), rng.normal(size=5)]
    grads = [10.0 * rng.normal(size=(3, 2)), None, 10.0 * rng.normal(size=5)]
    with_dead = [ag.leaf(v) for v in vals]
    without = [ag.leaf(vals[0]), ag.leaf(vals[2])]
    opt, ref = opt_cls(with_dead, lr=0.1), opt_cls(without, lr=0.1)
    for _ in range(3):
        for l, g in zip(with_dead, grads):
            l.grad = g
        for l, g in zip(without, (grads[0], grads[2])):
            l.grad = g
        opt.step()
        ref.step()
    np.testing.assert_array_equal(with_dead[1].value, vals[1])
    for got, want in zip((with_dead[0], with_dead[2]), without):
        np.testing.assert_array_equal(got.value, want.value)
    assert not np.array_equal(with_dead[0].value, vals[0])
    if opt_cls is nets.Adam:
        seg = slice(6, 10)      # leaf 1's moments follow leaf 0's six entries
        assert not opt.m[seg].any() and not opt.v[seg].any()


def test_adam_leaf_stays_put_once_its_gradient_stops():
    """Momentum does not carry a leaf that no longer gets a gradient."""
    x = ag.leaf(np.ones(3))
    opt = nets.Adam([x], lr=0.1)
    x.grad = np.array([1.0, -2.0, 0.5])
    opt.step()
    after_one, m, v = x.value.copy(), opt.m[0:3].copy(), opt.v[0:3].copy()
    x.grad = None
    opt.step()
    np.testing.assert_array_equal(x.value, after_one)
    np.testing.assert_array_equal(opt.m[0:3], m)
    np.testing.assert_array_equal(opt.v[0:3], v)


class _PerLeafGradientDescent:
    """Reference: gradient descent stepping one leaf array at a time."""

    def __init__(self, leaves, lr, clip_norm=1.0):
        self.leaves = leaves
        self.lr = lr
        self.clip_norm = clip_norm

    def step(self):
        live = [l for l in self.leaves if l.grad is not None]
        total = np.sqrt(sum(float(np.sum(l.grad * l.grad)) for l in live))
        scale = 1.0 if total <= self.clip_norm else self.clip_norm / total
        for l in live:
            l.value = l.value - self.lr * scale * l.grad


class _PerLeafAdam:
    """Reference: Adam keeping one moment array per leaf."""

    def __init__(self, leaves, lr, beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=1.0):
        self.leaves = leaves
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(l.value) for l in leaves]
        self.v = [np.zeros_like(l.value) for l in leaves]
        self.t = 0

    def step(self):
        self.t += 1
        live = [i for i, l in enumerate(self.leaves) if l.grad is not None]
        grads = [self.leaves[i].grad for i in live]
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if self.clip_norm and total > self.clip_norm:
            grads = [g * (self.clip_norm / total) for g in grads]
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, g in zip(live, grads):
            l = self.leaves[i]
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / b1t
            vhat = self.v[i] / b2t
            l.value = l.value - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("grad_scale", [1e-4, 10.0], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("opt_cls, ref_cls", [(nets.Adam, _PerLeafAdam),
                                              (nets.GradientDescent, _PerLeafGradientDescent)])
def test_flat_optimizer_matches_per_leaf_reference(opt_cls, ref_cls, grad_scale):
    """The packed optimizers do the per-leaf arithmetic bit for bit: mixed
    shapes, a leaf longer than one block, a leaf that never gets a gradient
    and one that misses a step."""
    rng = np.random.default_rng(1)
    shapes = [(3, 2), (70, 64), (4,), (1,), (2, 3, 2), (nets._BLOCK + 37,)]
    vals = [rng.normal(size=s) for s in shapes]
    flat_leaves = [ag.leaf(v) for v in vals]
    ref_leaves = [ag.leaf(v) for v in vals]
    opt, ref = opt_cls(flat_leaves, lr=0.01), ref_cls(ref_leaves, lr=0.01)
    for step in range(6):
        grads = [grad_scale * rng.normal(size=s) for s in shapes]
        grads[2] = None                     # never live
        if step == 3:
            grads[0] = grads[4] = None      # splits the live runs for one step
        for a, b, g in zip(flat_leaves, ref_leaves, grads):
            a.grad = b.grad = g
        opt.step()
        ref.step()
        for a, b in zip(flat_leaves, ref_leaves):
            np.testing.assert_array_equal(a.value, b.value)
        if opt_cls is nets.Adam:
            bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
            for i, s in enumerate(shapes):
                seg = slice(bounds[i], bounds[i + 1])
                np.testing.assert_array_equal(opt.m[seg].reshape(s), ref.m[i])
                np.testing.assert_array_equal(opt.v[seg].reshape(s), ref.v[i])
    np.testing.assert_array_equal(flat_leaves[2].value, vals[2])


@pytest.mark.parametrize("opt_cls", [nets.Adam, nets.GradientDescent])
def test_rebinding_a_packed_leaf_raises_at_the_next_step(opt_cls):
    x, y = ag.leaf(np.ones(3)), ag.leaf(np.zeros(2))
    opt = opt_cls([x, y], lr=0.1)
    x.grad, y.grad = np.ones(3), np.ones(2)
    opt.step()
    x.value = x.value + 1.0       # no longer a view into the optimizer's vector
    with pytest.raises(RuntimeError, match="rebound"):
        opt.step()


def test_anchors_are_posed_only_from_the_lever_table(small_run, monkeypatch):
    """Once the model's anchor table exists, a 3-linearization solve, a
    phase-2 loss call and a solver-refined evaluation pose no vertices:
    every anchor comes from `body.pose_anchors`, which contracts the table."""
    model, dataset, cfg, flow, extra, _ = small_run
    model.anchor_levers
    for module in (solver, synth, training, metrics):
        assert not hasattr(module, "pose_points"), module.__name__
    posed, assembled = [], []
    real_pose, real_assemble = body.pose_points, solver.assemble_system

    def counting_pose(*args, **kwargs):
        posed.append(1)
        return real_pose(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        assembled.append(1)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(body, "pose_points", counting_pose)
    monkeypatch.setattr(solver, "assemble_system", counting_assemble)
    rng = np.random.default_rng(0)
    init = [p.compose(axis_angle_exp(np.radians(5.0) * rng.normal(size=3)))
            for p in dataset[0].gt_state.pose]
    res = solver.solve_single_view(model, init, dataset[0].views[0],
                                   solver.SolveConfig(gamma=1e-4, max_relinearizations=2))
    assert res.n_relinearizations == 2 and len(assembled) == 3

    idx = np.arange(4)
    _, tensors, _, ctx_rows, mu = _phase2_step(small_run, idx)
    training._mode_shape_losses(flow, model, tensors, idx, ctx_rows, mu)
    rep = metrics.evaluate(flow, training.make_encoder(extra, cfg.blocks), model,
                           dataset[:2], n_samples=3, use_solver=True)
    assert len(assembled) > 3 and rep["summary"]["use_solver"]
    assert posed == []
