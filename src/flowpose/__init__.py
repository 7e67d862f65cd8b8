"""Probabilistic articulated 3D pose estimation.

Normalizing flows over per-joint rotations, a linearized least-squares
fitter for pose, shape and translation, and a synthetic data harness for
end-to-end experiments.
"""

__version__ = "0.1.0"

from . import (autodiff, body, checkpoint, distributions, flow, metrics,
               nets, rotation, solver, synth, training)
from .body import BodyModelDef, BodyState, load_model, make_toy_model, save_model
from .flow import FlowConfig, FlowModel, PoseBatch, PoseSample
from .rotation import Rotation
from .solver import Observation, SolveConfig, SolveResult

__all__ = [
    "__version__",
    "autodiff", "body", "checkpoint", "distributions", "flow", "metrics",
    "nets", "rotation", "solver", "synth", "training",
    "BodyModelDef", "BodyState", "load_model", "make_toy_model", "save_model",
    "FlowConfig", "FlowModel", "PoseBatch", "PoseSample", "Rotation",
    "Observation", "SolveConfig", "SolveResult",
]
