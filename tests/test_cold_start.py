"""A fresh interpreter imports no scipy with the library: only the first solve
loads it, for its LAPACK Cholesky."""

import os
import subprocess
import sys

import flowpose

SCRIPT = """
import sys
import flowpose.cli, flowpose.metrics, flowpose.training
print("scipy" in sys.modules)

import dataclasses
import numpy as np
from flowpose import body, solver
from flowpose.rotation import Rotation, as_matrices
model = body.make_toy_model()
pose = [Rotation.identity()] * model.n_joints
n = len(model.anchor_indices)
obs = solver.Observation(np.zeros((n, 2)), np.ones(n), np.ones(n),
                         [[800.0, 0, 320, 0], [0, 800.0, 240, 0], [0, 0, 1, 0]])
obs = dataclasses.replace(obs, anchors_2d=solver.reproject(
    model, solver._world_rotations(model, as_matrices(pose)), np.zeros(model.n_shape),
    [0.0, 0.0, 3.0], obs))
solver.solve_single_view(model, pose, obs, solver.SolveConfig())
print("scipy.linalg.lapack" in sys.modules)
"""


def test_scipy_waits_for_the_first_solve():
    src = os.path.dirname(os.path.dirname(flowpose.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.splitlines() == ["False", "True"]
