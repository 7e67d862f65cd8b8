"""Basin of the solver around the ground truth: how far from the GT pose a
start can be and still refine to the noise floor.

    PYTHONPATH=src python tools/basin.py

Scenes: `synth.make_scene` seeds 1000-1039 on the standard two-view rig
with 1 px Laplace noise.  Starts: every joint of the GT pose turned by
exactly d degrees about its own random unit axis (d in 0, 5, 10, 20, 40;
the axes come from one fixed seed, so every cell solves the same starts).
Each start is solved by `solver.solve` from the world frame with
`metrics.EVAL_SOLVE` at 2 and at 5 relinearizations, on view 0 alone and
on both views.

Per cell it prints how many solves return, raise `DivergenceError` or
raise another `SolverFailure`; and, among those that return, how many end
with an anchor at or behind an image plane of a solved view (depth <= 0),
how many end at a weighted RMS of 5 px or more, the median weighted RMS in
px and the median root-aligned MPJPE in mm.  The output is deterministic:
two trees whose solves are bit-identical print the same text.
"""

import dataclasses

import numpy as np

from flowpose import body, metrics, solver, synth
from flowpose.rotation import as_matrices, exp_matrices

SEEDS = range(1000, 1040)
DEGREES = (0, 5, 10, 20, 40)
RELINEARIZATIONS = (2, 5)
AXIS_SEED = 0
POOR_FIT_PX = 5.0


def behind_camera(model, res, views):
    """Whether some anchor of the returned state is at or behind the image
    plane of one of the views."""
    pts = body.pose_anchors(model, res.rotations, np.concatenate([[1.0], res.beta]))
    pts = pts + res.translation
    return any(((pts @ v.extrinsics_r.T + v.extrinsics_t)[:, 2] <= 0).any() for v in views)


def fixture():
    """The model, the scenes and the starts: (scene index, degrees) -> the
    (K,3,3) relative rotations of that start."""
    model = body.make_toy_model()
    scenes = [synth.make_scene(model, synth.standard_rig(2), synth.NoiseSpec(1.0), s)
              for s in SEEDS]
    rng = np.random.default_rng(AXIS_SEED)
    starts = {}
    for i, rec in enumerate(scenes):
        gt = as_matrices(rec.gt_state.pose)
        for deg in DEGREES:
            axes = rng.normal(size=(model.n_joints, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            starts[i, deg] = gt @ exp_matrices(np.radians(deg) * axes)
    return model, scenes, starts


def main():
    model, scenes, starts = fixture()
    print("views relin  deg  returned diverged failed  behind  >=5px  "
          "median_rms_px  median_mpjpe_mm")
    for n_views in (1, 2):
        for relin in RELINEARIZATIONS:
            cfg = dataclasses.replace(metrics.EVAL_SOLVE, max_relinearizations=relin)
            for deg in DEGREES:
                counts = {"returned": 0, "diverged": 0, "failed": 0, "behind": 0, "poor": 0}
                rms, err = [], []
                for i, rec in enumerate(scenes):
                    views = rec.views[:n_views]
                    try:
                        res = solver.solve(model, starts[i, deg], views, cfg)
                    except solver.DivergenceError:
                        counts["diverged"] += 1
                        continue
                    except solver.SolverFailure:
                        counts["failed"] += 1
                        continue
                    counts["returned"] += 1
                    counts["behind"] += behind_camera(model, res, views)
                    counts["poor"] += res.weighted_rms_residual >= POOR_FIT_PX
                    rms.append(res.weighted_rms_residual)
                    gt = rec.gt_state
                    err.append(1e3 * float(metrics.mpjpe(
                        metrics.joints_3d(model, res.pose, res.beta, res.translation),
                        metrics.joints_3d(model, gt.pose, gt.shape, gt.translation))))
                med_rms = f"{np.median(rms):.3f}" if rms else "-"
                med_err = f"{np.median(err):.2f}" if err else "-"
                print(f"{n_views:5d} {relin:5d} {deg:4d} {counts['returned']:9d} "
                      f"{counts['diverged']:8d} {counts['failed']:6d} {counts['behind']:7d} "
                      f"{counts['poor']:6d} {med_rms:>14s} {med_err:>16s}")


if __name__ == "__main__":
    main()
