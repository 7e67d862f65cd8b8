import numpy as np
import pytest

from flowpose import body, synth, training

# one "[PASS]/[FAIL] criterion N: ..." line per acceptance criterion,
# echoed after the run summary so capture modes can't swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_model():
    return body.make_toy_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def trained_model():
    """The criterion-8 fixture: 24 one-view scenes, 8 + 2 epochs, seed 0."""
    model = body.make_toy_model()
    dataset = synth.gen_dataset(model, 24, synth.standard_rig(1),
                                synth.NoiseSpec(1.0), seed=0)
    cfg = training.TrainConfig(phase1_epochs=8, phase2_epochs=2, seed=0)
    flow, extra, _ = training.train(model, dataset, cfg)
    encode = training.make_encoder(extra, cfg.blocks)
    return model, dataset, flow, encode
