"""The library itself prints nothing: stdout belongs to the CLI and to the
bench, which reads its result from the last stdout line."""

import numpy as np

from flowpose import body, metrics, solver, synth, training
from flowpose.rotation import Rotation


def test_library_writes_nothing_to_stdout(capfd):
    model = body.make_toy_model()
    dataset = synth.gen_dataset(model, 4, synth.standard_rig(1), synth.NoiseSpec(1.0), seed=0)
    capfd.readouterr()
    cfg = training.TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=2, seed=0)
    flow, extra, _ = training.train(model, dataset, cfg)
    encode = training.make_encoder(extra, cfg.blocks)
    flow.flow_sample(encode(dataset[0].context_features), 3, np.random.default_rng(0),
                     include_mode=True)
    metrics.evaluate(flow, encode, model, dataset[:2], n_samples=2, use_solver=True)
    rec = dataset[0]
    solver.solve_single_view(model, rec.gt_state.pose, rec.views[0], solver.SolveConfig())
    training.fit_toy_distribution([Rotation.identity()], steps=2, batch=8, report_samples=16)
    assert capfd.readouterr().out == ""
