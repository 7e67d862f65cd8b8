"""Checkpoint serialization: one JSON document per checkpoint.

Arrays are stored as base64 little-endian float64 blobs next to their
shapes, so files regenerate byte-identically from the same parameters
and need no binary sidecar.  A `meta` block carries non-reproducible
fields (timestamps) and is ignored on load.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import time

import numpy as np

from .flow import FlowConfig, FlowModel
from .nets import ParamStore

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _encode(arr):
    a = np.ascontiguousarray(np.asarray(arr, np.float64))
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _decode(name, d):
    a = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    if not np.isfinite(a).all():
        raise CheckpointError(f"checkpoint parameter {name} holds non-finite values")
    return a.reshape(d["shape"]).copy()


def save_checkpoint(path, flow: FlowModel, extra: ParamStore | None = None,
                    train_config=None, with_timestamp=True):
    doc = {
        "format_version": FORMAT_VERSION,
        "flow_config": dataclasses.asdict(flow.cfg),
        "params": {k: _encode(v) for k, v in flow.param_values().items()},
        "extra": {k: _encode(v) for k, v in (extra.values() if extra else {}).items()},
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
        "meta": {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                 if with_timestamp else None},
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path):
    """(flow, extra ParamStore, train_config dict or None); rejects non-finite parameters."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError("unsupported checkpoint format_version")
    try:
        flow = FlowModel(FlowConfig(**doc["flow_config"]), np.random.default_rng(0))
        flow.params.load_values({k: _decode(k, v) for k, v in doc["params"].items()})
        extra = ParamStore()
        for k, v in doc.get("extra", {}).items():
            extra.add(k, _decode(k, v))
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"checkpoint incomplete or incompatible with its flow config: {e}")
    return flow, extra, doc.get("train_config")
