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
from flowpose import training  # noqa: E402


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
    assert not [h for h in hooks.missing
                if h.split(".")[0] in ("flow", "autodiff", "nets")]
    json.dumps(values, allow_nan=False)
    # iteration counts come from the inverse's second output
    assert values["flow.bisect_iters_mean"] >= 1
    assert values["flow.bisect_iters_max"] >= 1
