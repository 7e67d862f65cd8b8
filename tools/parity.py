"""Are two source trees' CLI outputs bit-identical?

    python tools/parity.py PARENT [CHANGE]

PARENT and CHANGE are git revisions of this repository, exported with
`git archive`, or directories holding a `src/flowpose` tree; CHANGE
defaults to the working tree.  Each tree runs one fixed set of CLI
commands, each in a fresh interpreter with one BLAS thread
(`OPENBLAS_NUM_THREADS=1`) and `--no-timestamp` on the checkpoints:

* gen-model;
* gen-data: 16 one-view scenes with occlusion, and 6 two-view scenes on
  the depth-ambiguous rig;
* train: a 4+2-epoch SGD run and a 4+2-epoch Adam run;
* sample: 30 draws for scene 2;
* eval: with and without the solver on one view, with it on two views,
  and the multi-view experiment;
* solve: from a world-frame pose_init over both views of a two-view
  scene, and from a per-view pose_init;
* toy-fit: 60 steps;
* selftest;
* four rejected inputs, whose stderr and exit code are compared: a solve
  whose pose_init lacks a joint, a sample from a NaN context, gen-data
  on a rig with an infinite translation bound, and a train on a dataset
  one of whose views holds one anchor fewer than the model.

Every command runs from its own
run directory with relative paths, so no output names a location.  The
compared files are everything the commands write, plus each command's
stdout, stderr and exit code.  For each file it prints `identical`; or,
when the two files differ only in their numbers, the largest absolute
and relative difference between them; or `differs`.  It exits 1 on any
difference, 0 otherwise.  Last it prints the line count of each tree's
`src/flowpose/*.py`, the measure of a change's size in code.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
CONFIGS = "cfg"          # the configs the set writes, not compared
MODEL = "model/model.json"

# a JSON or CSV number, or the non-finite tokens Python's json writes
NUMBER = re.compile(rb"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity)|NaN")


def _nudged(pose):
    # a start off the GT pose; the CLI normalizes each quaternion
    return (np.asarray(pose) + [0.0, 0.05, -0.05, 0.025]).tolist()


def _solve(dataset, scene, per_view=False):
    """A solve config over every view of a scene of `dataset`, from its GT pose
    nudged: one world-frame pose, or that pose handed in once per view."""
    def config(run):
        with open(run / dataset) as f:
            rec = json.loads(f.readlines()[scene])
        pose = _nudged(rec["gt"]["pose"])
        return {"model": MODEL, "pose_init": [pose] * len(rec["views"]) if per_view else pose,
                "observations": rec["views"], "solve": {"max_relinearizations": 3}}
    return config


def _missing_joint(run):
    doc = _solve("two_view/dataset.jsonl", 0)(run)
    return {**doc, "pose_init": doc["pose_init"][:-1]}


def _train(epochs, **extra):
    return {"model": MODEL, "dataset": "one_view/dataset.jsonl",
            "train": {"phase1_epochs": epochs[0], "phase2_epochs": epochs[1], **extra}}


def _short_view(run):
    """A train config on the one-view dataset with scene 3's view cut to all
    but its last anchor; the cut dataset goes with the configs."""
    lines = (run / "one_view/dataset.jsonl").read_text().splitlines()
    scene = json.loads(lines[3])
    for key in ("anchors", "gt_anchors", "scale", "aux"):
        scene["views"][0][key] = scene["views"][0][key][:-1]
    lines[3] = json.dumps(scene)
    (run / CONFIGS / "short_view.jsonl").write_text("\n".join(lines) + "\n")
    return {**_train((1, 1)), "dataset": f"{CONFIGS}/short_view.jsonl"}


def _eval(**extra):
    return {"model": MODEL, "dataset": "one_view/dataset.jsonl",
            "checkpoint": "sgd/checkpoint.json", **extra}


# (step name, which is also its --out directory; command; config: a dict, a
# function of the run directory or None; --seed or None)
FULL = [
    ("model", "gen-model", None, 0),
    ("one_view", "gen-data", {"model": MODEL, "n_scenes": 16,
                              "noise": {"pixel_scale": 1.0, "occlusion_prob": 0.1}}, 1),
    ("two_view", "gen-data", {"model": MODEL, "n_scenes": 6,
                              "rig": "depth_ambiguous", "views": 2}, 0),
    ("sgd", "train", _train((4, 2)), 0),
    ("adam", "train", _train((4, 2), optimizer="adam"), 0),
    ("sample", "sample", {"checkpoint": "sgd/checkpoint.json",
                          "dataset": "one_view/dataset.jsonl", "scene": 2, "n": 30}, 0),
    ("eval", "eval", _eval(n_samples=10), 0),
    ("eval_solver", "eval", _eval(n_samples=10, use_solver=True), 0),
    ("eval_two_view", "eval", {"model": MODEL, "dataset": "two_view/dataset.jsonl",
                               "checkpoint": "sgd/checkpoint.json", "n_samples": 5,
                               "use_solver": True, "views": 2}, 0),
    ("multi_view", "eval", {"model": MODEL, "dataset": "two_view/dataset.jsonl",
                            "experiment": "multi_view"}, 0),
    ("solve_world", "solve", _solve("two_view/dataset.jsonl", 0), None),
    ("solve_per_view", "solve", _solve("two_view/dataset.jsonl", 1, per_view=True), None),
    ("toy", "toy-fit", {"steps": 60, "batch": 32, "n_modes": 3, "report_samples": 500}, 0),
    ("selftest", "selftest", None, 0),
    ("bad_pose", "solve", _missing_joint, None),
    ("bad_context", "sample", {"checkpoint": "sgd/checkpoint.json",
                               "context": [float("nan")] + [0.0] * 15}, 0),
    ("bad_rig", "gen-data", {"model": MODEL, "n_scenes": 2,
                             "rig": {"cameras": [{"fx": 800, "fy": 800, "cx": 320, "cy": 240}],
                                     "translation_lo": [0, 0, 2],
                                     "translation_hi": [0, 0, float("inf")]}}, 0),
    ("bad_view", "train", _short_view, 0),
]
# the reduced set of the tier-1 test (tests/test_parity.py)
QUICK = [
    ("model", "gen-model", None, 0),
    ("one_view", "gen-data", {"model": MODEL, "n_scenes": 4}, 1),
    ("sgd", "train", _train((1, 1)), 0),
    ("sample", "sample", {"checkpoint": "sgd/checkpoint.json",
                          "dataset": "one_view/dataset.jsonl", "scene": 1, "n": 5}, 0),
    ("solve_world", "solve", _solve("one_view/dataset.jsonl", 0), None),
    ("eval_solver", "eval", _eval(n_samples=2, use_solver=True), 0),
]


def run_set(src, run, steps):
    """Run `steps` with the flowpose package under `src` in the empty
    directory `run`; each step's stdout, stderr and exit code go to
    <step>.stdout, <step>.stderr and <step>.exit."""
    run = Path(run)
    (run / CONFIGS).mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OPENBLAS_NUM_THREADS": "1"}
    for name, command, config, seed in steps:
        argv = [sys.executable, "-m", "flowpose.cli", command,
                "--out", name, "--no-timestamp"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if config is not None:
            path = Path(CONFIGS) / f"{name}.json"
            doc = config(run) if callable(config) else config
            (run / path).write_text(json.dumps(doc))
            argv += ["--config", str(path)]
        done = subprocess.run(argv, cwd=run, env=env, capture_output=True)
        (run / f"{name}.stdout").write_bytes(done.stdout)
        (run / f"{name}.stderr").write_bytes(done.stderr)
        (run / f"{name}.exit").write_text(f"{done.returncode}\n")


def _outputs(run):
    run = Path(run)
    return {p.relative_to(run).as_posix() for p in run.rglob("*")
            if p.is_file() and p.relative_to(run).parts[0] != CONFIGS}


def verdict(a: bytes, b: bytes) -> str:
    """`identical`; the largest absolute and relative difference of the
    numbers when the two texts match apart from them; or `differs`."""
    if a == b:
        return "identical"
    if NUMBER.split(a) != NUMBER.split(b):
        return "differs"
    na, nb = NUMBER.findall(a), NUMBER.findall(b)
    with np.errstate(invalid="ignore", over="ignore"):
        x, y = np.array(na, dtype=float), np.array(nb, dtype=float)
        diff = np.abs(x - y)
        diff[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
        rel = np.where(diff == 0.0, 0.0, diff / np.maximum(np.abs(x), np.abs(y)))
    rel[np.isnan(rel)] = np.inf     # an infinity against a finite number
    return f"numbers differ: max abs {diff.max():.3g}, max rel {rel.max():.3g}"


def compare(run_a, run_b):
    """[(file, verdict)] over the union of both runs' output files."""
    fa, fb = _outputs(run_a), _outputs(run_b)
    rows = []
    for name in sorted(fa | fb):
        if name not in fb or name not in fa:
            rows.append((name, f"only in {'PARENT' if name in fa else 'CHANGE'}"))
        else:
            rows.append((name, verdict((Path(run_a) / name).read_bytes(),
                                       (Path(run_b) / name).read_bytes())))
    return rows


def source_tree(rev, into):
    """The directory holding `flowpose` for a revision or a directory."""
    if rev is None:
        return REPO / "src"
    if (Path(rev) / "src" / "flowpose").is_dir():
        return Path(rev) / "src"
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=REPO,
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"parity: cannot export {rev}: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the filter argument exists from Python 3.12 and the 3.10/3.11 security releases
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(into) / "src"


def src_lines(src):
    """Lines in the `flowpose/*.py` files of a source tree, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(src) / "flowpose").glob("*.py"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision or directory")
    p.add_argument("change", nargs="?", help="git revision or directory (default: working tree)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        runs, lines = [], []
        for label, rev in (("parent", args.parent), ("change", args.change)):
            src, run = source_tree(rev, tmp / label), tmp / label / "run"
            run_set(src, run, FULL)
            runs.append(run)
            lines.append(src_lines(src))
        rows = compare(*runs)
    width = max(len(name) for name, _ in rows)
    for name, v in rows:
        print(f"{name:<{width}}  {v}")
    n_same = sum(v == "identical" for _, v in rows)
    print(f"{n_same} of {len(rows)} files identical "
          f"({args.parent} vs {args.change or 'the working tree'}, {len(FULL)} commands)")
    print(f"src lines: {lines[0]} -> {lines[1]}")
    return 0 if n_same == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
