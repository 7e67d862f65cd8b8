"""Rotation objects are built only where a caller hands rotations in: the
number a toy fit, a `train` or an `evaluate` builds does not grow with the
steps, scenes or draws it runs, and iterating a `PoseBatch` wraps rows of its
quaternion buffer without building any."""

import dataclasses

import numpy as np
import pytest

from flowpose import body, metrics, synth, training
from flowpose.distributions import uniform_sample
from flowpose.flow import FlowConfig, FlowModel
from flowpose.rotation import Rotation

SMALL_FLOW = FlowConfig(n_joints=1, context_dim=1, shape_dim=1, k_transforms=4, n_sets=2,
                        channels=8, blocks=1, embed_dim=2, kappa=1.0)
TRAIN = training.TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=2, seed=0)


@pytest.fixture()
def built(monkeypatch):
    """A counter of `Rotation.__init__` calls, reset by the caller."""
    count = [0]
    init = Rotation.__init__

    def counting(self, q):
        count[0] += 1
        init(self, q)

    monkeypatch.setattr(Rotation, "__init__", counting)
    return count


def _count(built, run):
    built[0] = 0
    run()
    return built[0]


@pytest.fixture(scope="module")
def scenes():
    model = body.make_toy_model()
    return model, synth.gen_dataset(model, 8, synth.standard_rig(1), synth.NoiseSpec(1.0), seed=0)


def test_toy_fit_builds_as_many_rotations_at_5_and_20_steps(built):
    targets = [uniform_sample(np.random.default_rng(0)) for _ in range(2)]
    counts = [_count(built, lambda: training.fit_toy_distribution(
        targets, SMALL_FLOW, steps=steps, batch=8, report_samples=16)) for steps in (5, 20)]
    assert counts[0] == counts[1]


def test_train_builds_as_many_rotations_on_4_and_8_scenes(built, scenes):
    model, dataset = scenes
    counts = [_count(built, lambda: training.train(model, dataset[:n], TRAIN)) for n in (4, 8)]
    assert counts[0] == counts[1]


def test_evaluate_with_the_solver_builds_as_many_rotations_at_3_and_9_draws(built, scenes):
    model, dataset = scenes
    flow, extra, _ = training.train(model, dataset[:4], TRAIN)
    encode = training.make_encoder(extra, TRAIN.blocks)
    counts = [_count(built, lambda: metrics.evaluate(flow, encode, model, dataset[:2],
                                                     n_samples=n, use_solver=True))
              for n in (3, 9)]
    assert counts[0] == counts[1]


def test_iterating_a_batch_of_3_or_9_draws_calls_no_rotation_init(built):
    flow = FlowModel(dataclasses.replace(SMALL_FLOW, n_joints=3), np.random.default_rng(0))
    for n in (3, 9):
        batch = flow.flow_sample(np.zeros(1), n, np.random.default_rng(n))
        draws = []
        assert _count(built, lambda: draws.extend(batch)) == 0
        assert len(draws) == n
        assert all(type(r) is Rotation for d in draws for r in d.joint_rotations)
        assert all(len(d.joint_rotations) == 3 for d in draws)
