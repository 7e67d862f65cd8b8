"""The benchmark's traced run still reads the library: every hook finds
its binding and the per-layer metrics make a strict-JSON result line."""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "flowbench"))

import layers  # noqa: E402
import spans  # noqa: E402

from flowpose import distributions as dist  # noqa: E402
from flowpose import body, metrics, solver, synth, training  # noqa: E402


def test_traced_toy_fit_gives_strict_json_metrics():
    rng = np.random.default_rng(0)
    targets = [dist.uniform_sample(rng) for _ in range(4)]
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with spans.Hooks(tracer, layers.HOOKS) as hooks:
        flow, _ = training.fit_toy_distribution(targets, steps=4, batch=16,
                                                report_samples=16)
        flow.flow_sample(np.zeros(flow.cfg.context_dim), 20, rng)
    window = (t0, time.perf_counter())
    values = layers.layer_metrics(tracer, hooks.missing, [window], 0.0)
    assert not hooks.missing
    json.dumps(values, allow_nan=False)
    # iteration counts come from the inverse's second output
    assert values["flow.bisect_iters_mean"] >= 1
    assert values["flow.bisect_iters_max"] >= 1


def test_traced_solve_and_evaluate_give_strict_json_solver_metrics(trained_model):
    model, dataset, flow, encode = trained_model
    rec = dataset[0]
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with spans.Hooks(tracer, layers.HOOKS) as hooks:
        metrics.evaluate(flow, encode, model, dataset[:2], n_samples=5)
        draws = flow.flow_sample(encode(rec.context_features), 6,
                                 np.random.default_rng(0), include_mode=True)
        for rotations, shape in zip(draws.rotations, draws.shapes):
            cfg = solver.SolveConfig(omega_beta=1e-3, gamma=1e-4, beta_prior=shape,
                                     max_relinearizations=2)
            try:
                solver.solve_single_view(model, rotations, rec.views[0], cfg)
            except solver.SolverFailure:
                pass
    window = (t0, time.perf_counter())
    values = layers.layer_metrics(tracer, hooks.missing, [window], 0.0)
    assert not hooks.missing
    json.dumps(values, allow_nan=False)
    solver_values = {k: v for k, v in values.items() if k.startswith("solver.")}
    assert solver_values and None not in solver_values.values()
    assert values["solver.linearizations_per_solve"] >= 1
    assert values["solver.assemble_ms_per_linearization"] > 0
    assert values["metrics.score_ms_per_draw"] > 0


def test_step_clock_bindings_are_each_owners_own():
    # Hooks wrap owner.__dict__[attr]: a step inherited from a base class
    # would leave the optimizer unhooked and the step clock empty
    for _, bindings, _ in layers.STEP_CLOCK:
        for owner_path, attr in bindings:
            owner = spans._resolve(owner_path)
            assert owner is not None, owner_path
            assert callable(owner.__dict__.get(attr)), (owner_path, attr)


def test_traced_sgd_train_times_its_steps():
    model = body.make_toy_model()
    dataset = synth.gen_dataset(model, 4, synth.standard_rig(1), synth.NoiseSpec(1.0), seed=0)
    cfg = training.TrainConfig(phase1_epochs=2, phase2_epochs=0, batch_size=2, seed=0)
    assert cfg.optimizer == "sgd"
    tracer = spans.Tracer()
    with spans.Hooks(tracer, layers.STEP_CLOCK) as hooks:
        training.train(model, dataset, cfg)
    assert not hooks.missing
    assert tracer.step_durations()
