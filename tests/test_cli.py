"""Command-line interface: exit codes, outputs, determinism."""

import base64
import dataclasses
import json
import os
import re
import reprlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpose import autodiff as ag
from flowpose import cli, training


def _run(args):
    return cli.main(args)


def _write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert _run(["gen-model", "--out", str(ws)]) == 0
    cfg = _write(ws / "gen.json", {"model": str(ws / "model.json"),
                                   "n_scenes": 12, "views": 1})
    assert _run(["gen-data", "--config", cfg, "--seed", "1",
                 "--out", str(ws)]) == 0
    tcfg = _write(ws / "train.json",
                  {"model": str(ws / "model.json"),
                   "dataset": str(ws / "dataset.jsonl"),
                   "train": {"phase1_epochs": 2, "phase2_epochs": 1}})
    assert _run(["train", "--config", tcfg, "--seed", "0", "--out", str(ws),
                 "--no-timestamp"]) == 0
    return ws


def test_version_and_help(capsys):
    assert _run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "flowpose" in out
    assert _run(["--help"]) == 0
    out = capsys.readouterr().out
    # schema-derived help mentions every structured config key
    for key in ("phase1_epochs", "omega_beta", "pixel_scale", "k_transforms"):
        assert key in out


def test_unknown_command_exit_1():
    assert _run(["frobnicate"]) == 1


def test_missing_config_exit_1(tmp_path):
    assert _run(["gen-data", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_unknown_config_key_exit_1(tmp_path):
    cfg = _write(tmp_path / "c.json", {"bogus_key": 1})
    assert _run(["gen-model", "--config", cfg, "--out", str(tmp_path)]) == 1


def _raising(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("command, code", [
    (lambda args: 0, 0),
    (_raising(cli.ValidationError("bad config")), 1),
    (_raising(ValueError("bad value")), 1),
    (_raising(ag.DomainError("log of non-positive value")), 2),
    (_raising(np.linalg.LinAlgError("Matrix is not positive definite")), 2),
    (_raising(training.TrainingAborted("non-finite loss")), 2),
])
def test_exit_code_contract(monkeypatch, command, code):
    monkeypatch.setitem(cli.COMMANDS, "selftest", command)
    assert _run(["selftest"]) == code


def test_threads_flag_is_gone():
    assert _run(["selftest", "--threads", "2"]) == 1
    # eval's view count is its config key `views`
    assert _run(["eval", "--views", "2"]) == 1


def test_gen_model_and_data_outputs(workspace):
    assert (workspace / "model.json").exists()
    lines = (workspace / "dataset.jsonl").read_text().strip().split("\n")
    assert len(lines) == 12
    json.loads(lines[0])


def test_train_outputs(workspace):
    ck = json.loads((workspace / "checkpoint.json").read_text())
    assert "flow" in ck or "params" in ck or len(ck) > 0
    assert (workspace / "train_log.csv").read_text().count("\n") >= 3


def test_sample_command(workspace, tmp_path):
    cfg = _write(tmp_path / "s.json",
                 {"checkpoint": str(workspace / "checkpoint.json"),
                  "dataset": str(workspace / "dataset.jsonl"),
                  "scene": 0, "n": 4})
    assert _run(["sample", "--config", cfg, "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "samples.json").read_text())
    assert len(doc["samples"]) == 5  # the mode plus n random draws
    assert doc["samples"][0]["is_mode"]
    assert set(doc["samples"][0]) == {"is_mode", "joint_rotations", "shape", "log_prob"}


@pytest.mark.parametrize("n", [-1, 2.5])
def test_sample_invalid_n_exit_1(workspace, tmp_path, capsys, n):
    cfg = _write(tmp_path / "s.json",
                 {"checkpoint": str(workspace / "checkpoint.json"),
                  "dataset": str(workspace / "dataset.jsonl"), "n": n})
    capsys.readouterr()
    assert _run(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert re.search(r"\bn\b", err[0])


def test_solve_command(workspace, tmp_path):
    from flowpose import body, synth
    ds = synth.load_dataset(workspace / "dataset.jsonl")
    rec = ds[0]
    v = rec.views[0]
    cfg = _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": [r.to_json() for r in rec.gt_state.pose],
        "observations": [{"anchors": v.anchors_2d.tolist(),
                          "scale": v.laplace_scale.tolist(),
                          "aux": v.aux_weight.tolist(),
                          "intrinsics": v.intrinsics.tolist()}]})
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve_result.json").read_text())
    assert doc["weighted_rms_residual"] < 10.0
    assert len(doc["pose"]) == 8


@pytest.mark.parametrize("seed", [3, 4])
def test_solve_two_views_from_a_flat_world_pose(workspace, tmp_path, seed):
    # a flat pose_init is one pose in the world frame for every view: from
    # the GT pose, noiseless anchors on a rig whose second camera is
    # rotated are matched exactly
    from flowpose import body, synth
    model = body.load_model(workspace / "model.json")
    rec = synth.make_scene(model, synth.standard_rig(2), synth.NoiseSpec(0.0), seed)
    assert not np.allclose(rec.views[1].extrinsics_r, np.eye(3))
    cfg = _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": [r.to_json() for r in rec.gt_state.pose],
        "observations": [{"anchors": v.anchors_2d.tolist(),
                          "scale": v.laplace_scale.tolist(),
                          "intrinsics": v.intrinsics.tolist(),
                          "extr_r": v.extrinsics_r.tolist(),
                          "extr_t": v.extrinsics_t.tolist()} for v in rec.views]})
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve_result.json").read_text())
    assert doc["weighted_rms_residual"] < 1e-6


def test_solve_rejects_a_pose_with_a_joint_missing(workspace, tmp_path, capsys):
    from flowpose import synth
    rec = synth.load_dataset(workspace / "dataset.jsonl")[0]
    v = rec.views[0]
    cfg = _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": [r.to_json() for r in rec.gt_state.pose[:7]],
        "observations": [{"anchors": v.anchors_2d.tolist(),
                          "scale": v.laplace_scale.tolist(),
                          "intrinsics": v.intrinsics.tolist()}]})
    capsys.readouterr()
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: pose_init must be numbers of shape (8, 3, 3), got shape (7, 3, 3)"]
    assert not (tmp_path / "solve_result.json").exists()


def test_train_rejects_the_removed_lambda4(workspace, tmp_path, capsys):
    tcfg = _write(tmp_path / "t.json",
                  {"model": str(workspace / "model.json"),
                   "dataset": str(workspace / "dataset.jsonl"),
                   "train": {"phase1_epochs": 1, "phase2_epochs": 0, "lambda4": 1.0}})
    capsys.readouterr()
    assert _run(["train", "--config", tcfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad train config") and "lambda4" in err
    assert not (tmp_path / "checkpoint.json").exists()


def test_solve_overflow_prints_one_stderr_line(workspace, tmp_path):
    # a fresh interpreter, so numpy's warnings reach stderr as they would in a shell
    from flowpose import synth
    rec = synth.load_dataset(workspace / "dataset.jsonl")[0]
    v = rec.views[0]
    cfg = _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": [r.to_json() for r in rec.gt_state.pose],
        "observations": [{"anchors": (v.anchors_2d * 1e200).tolist(),
                          "scale": v.laplace_scale.tolist(),
                          "intrinsics": v.intrinsics.tolist()}]})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "flowpose.cli", "solve", "--config", cfg,
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["numerical failure: non-finite step at linearization 0"]
    assert not (tmp_path / "solve_result.json").exists()


def test_solve_rejects_a_one_entry_scale(workspace, tmp_path):
    from flowpose import synth
    rec = synth.load_dataset(workspace / "dataset.jsonl")[0]
    v = rec.views[0]
    cfg = _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": [r.to_json() for r in rec.gt_state.pose],
        "observations": [{"anchors": v.anchors_2d.tolist(), "scale": [1.0],
                          "intrinsics": v.intrinsics.tolist()}]})
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "solve_result.json").exists()


def test_eval_command(workspace, tmp_path):
    cfg = _write(tmp_path / "e.json",
                 {"model": str(workspace / "model.json"),
                  "dataset": str(workspace / "dataset.jsonl"),
                  "checkpoint": str(workspace / "checkpoint.json"),
                  "n_samples": 3})
    assert _run(["eval", "--config", cfg, "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["summary"]["mpjpe_min"] <= doc["summary"]["mpjpe_mode"] + 1e-12


def test_selftest_command(tmp_path):
    assert _run(["selftest", "--seed", "0", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "selftest.json").read_text())
    assert doc["ok"]


def test_toy_fit_command(tmp_path):
    cfg = _write(tmp_path / "t.json", {"steps": 10, "batch": 16,
                                       "report_samples": 200})
    assert _run(["toy-fit", "--config", cfg, "--seed", "0",
                 "--out", str(tmp_path), "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "toy_report.json").read_text())
    assert np.isfinite(doc["nll_after"])


def test_cli_train_idempotent(workspace, tmp_path):
    tcfg = _write(tmp_path / "t.json",
                  {"model": str(workspace / "model.json"),
                   "dataset": str(workspace / "dataset.jsonl"),
                   "train": {"phase1_epochs": 2, "phase2_epochs": 1}})
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["train", "--config", tcfg, "--seed", "0",
                     "--out", str(out), "--no-timestamp"]) == 0
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def test_checkpoint_timestamp_only_difference(workspace, tmp_path):
    tcfg = _write(tmp_path / "t.json",
                  {"model": str(workspace / "model.json"),
                   "dataset": str(workspace / "dataset.jsonl"),
                   "train": {"phase1_epochs": 1, "phase2_epochs": 0}})
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["train", "--config", tcfg, "--seed", "0",
                     "--out", str(out)]) == 0
    da = json.loads((a / "checkpoint.json").read_text())
    db = json.loads((b / "checkpoint.json").read_text())
    da.pop("meta"), db.pop("meta")
    assert json.dumps(da) == json.dumps(db)


@pytest.mark.parametrize("bad", [{"optimizer": "adma"},
                                 {"phase1_epochs": 0, "phase2_epochs": 0},
                                 {"phase1_epochs": -1},
                                 {"batch_size": 0},
                                 {"flow_sets": 0}, {"k_transforms": 0},
                                 {"flow_channels": 0}, {"enc_channels": 0},
                                 {"blocks": -1}, {"context_dim": -1},
                                 {"lr": -1.0}, {"lr": 0.0},
                                 {"lr": float("nan")}, {"lr": float("inf")},
                                 {"batch_size": 2.5}, {"batch_size": True},
                                 {"flow_sets": 1.5}, {"phase1_epochs": 1.0},
                                 {"lambda1": float("nan")}, {"lambda6": float("inf")},
                                 {"lambda2": -1.0}, {"kappa": float("nan")},
                                 {"kappa": float("inf")}, {"kappa": 0.0}, {"seed": 0.5}])
def test_train_rejects_a_bad_train_config(workspace, tmp_path, capsys, bad):
    tcfg = _write(tmp_path / "t.json",
                  {"model": str(workspace / "model.json"),
                   "dataset": str(workspace / "dataset.jsonl"),
                   "train": {"phase1_epochs": 1, "phase2_epochs": 0, **bad}})
    capsys.readouterr()
    assert _run(["train", "--config", tcfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(bad)) in err
    assert not (tmp_path / "checkpoint.json").exists()


_sizes = st.integers(0, 3)
_depths = st.integers(-1, 2)


@given(flow_sets=_sizes, k_transforms=_sizes, flow_channels=_sizes, enc_channels=_sizes,
       blocks=_depths, context_dim=_depths,
       lr=st.one_of(st.floats(1e-6, 0.1), st.sampled_from([0.0, -1.0, np.nan, np.inf])))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_train_sizes_and_rates_exit_0_or_1(workspace, **train):
    # a train config is either rejected up front or trains: nothing escapes main
    tcfg = _write(workspace / "t.json",
                  {"model": str(workspace / "model.json"),
                   "dataset": str(workspace / "dataset.jsonl"),
                   "train": {"phase1_epochs": 1, "phase2_epochs": 1, **train}})
    assert _run(["train", "--config", tcfg, "--out", str(workspace / "sizes"),
                 "--no-timestamp"]) in (0, 1)


def _solve_config(workspace, tmp_path, pose_init=None, drop=()):
    from flowpose import synth
    rec = synth.load_dataset(workspace / "dataset.jsonl")[0]
    v = rec.views[0]
    obs = {"anchors": v.anchors_2d.tolist(), "scale": v.laplace_scale.tolist(),
           "intrinsics": v.intrinsics.tolist()}
    return _write(tmp_path / "p.json", {
        "model": str(workspace / "model.json"),
        "pose_init": ([r.to_json() for r in rec.gt_state.pose]
                      if pose_init is None else pose_init),
        "observations": [{k: x for k, x in obs.items() if k not in drop}]})


def test_solve_observation_without_scale_exit_1(workspace, tmp_path, capsys):
    cfg = _solve_config(workspace, tmp_path, drop=("scale",))
    capsys.readouterr()
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: observation is missing 'scale'\n"


def test_solve_nan_anchor_exit_1(workspace, tmp_path, capsys):
    cfg = _solve_config(workspace, tmp_path)
    doc = json.loads(open(cfg).read())
    doc["observations"][0]["anchors"][3][0] = float("nan")
    _write(cfg, doc)
    capsys.readouterr()
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    anchors = reprlib.repr(doc["observations"][0]["anchors"])
    assert capsys.readouterr().err == f"error: anchors_2d must be finite, got {anchors}\n"
    assert not (tmp_path / "solve_result.json").exists()


def test_solve_non_finite_step_exit_2(workspace, tmp_path, capsys):
    # finite anchors whose normal equations overflow: a numerical failure
    cfg = _solve_config(workspace, tmp_path)
    doc = json.loads(open(cfg).read())
    doc["observations"][0]["anchors"] = (
        1e200 * np.array(doc["observations"][0]["anchors"])).tolist()
    _write(cfg, doc)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: non-finite step at linearization 0"]
    assert not (tmp_path / "solve_result.json").exists()


@pytest.mark.parametrize("pose_init", [[], [[]]])
def test_solve_empty_pose_init_exit_1(workspace, tmp_path, capsys, pose_init):
    cfg = _solve_config(workspace, tmp_path, pose_init=pose_init)
    capsys.readouterr()
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "pose_init" in capsys.readouterr().err
    assert not (tmp_path / "solve_result.json").exists()


def test_dataset_line_without_scale_exit_1(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "dataset.jsonl").read_text().splitlines()[0])
    del doc["views"][0]["scale"]
    (tmp_path / "d.jsonl").write_text(json.dumps(doc) + "\n")
    cfg = _write(tmp_path / "s.json", {"checkpoint": str(workspace / "checkpoint.json"),
                                       "dataset": str(tmp_path / "d.jsonl")})
    capsys.readouterr()
    assert _run(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: observation is missing 'scale'\n"


@pytest.mark.parametrize("scene", [12, -1, 1.5])
def test_sample_scene_out_of_range_exit_1(workspace, tmp_path, capsys, scene):
    # the workspace dataset has 12 scenes
    cfg = _write(tmp_path / "s.json", {"checkpoint": str(workspace / "checkpoint.json"),
                                       "dataset": str(workspace / "dataset.jsonl"),
                                       "scene": scene})
    capsys.readouterr()
    assert _run(["sample", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: scene must be")
    assert not (tmp_path / "samples.json").exists()


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"selftest"}))
def test_help_lists_every_accepted_config_key(monkeypatch, capsys, command):
    # record the keys the command hands to the config loader
    accepted = []

    def record(path, allowed):
        accepted.extend(allowed)
        raise cli.ValidationError("recorded")

    monkeypatch.setattr(cli, "_load_config", record)
    assert _run([command]) == 1
    assert _run(["--help"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith(f"  {command:<9}:"))
    assert accepted
    for key in accepted:
        assert re.search(rf"[:,] {key}\b", line), key


# JSON values of each kind, and the kinds each CONFIG_KEYS form accepts
_JSON = {"bool": True, "int": 3, "float": 2.5, "str": "x", "list": [1], "object": {}}
_KINDS = {int: {"int"}, float: {"int", "float"}, bool: {"bool"}, str: {"str"}, list: {"list"}}


def _accepted(form):
    return set().union(*(_KINDS.get(t, {"object"})
                         for t in (form if isinstance(form, tuple) else (form,))))


@pytest.mark.parametrize("command, key, kind", [
    (command, key, kind) for command, keys in cli.CONFIG_KEYS.items()
    for key, form in keys.items() for kind in sorted(set(_JSON) - _accepted(form))])
def test_a_wrong_typed_config_key_exits_1(tmp_path, capsys, command, key, kind):
    cfg = _write(tmp_path / "c.json", {key: _JSON[kind]})
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    cfg = _write(out / "t.json", {"steps": 2, "batch": 4, "report_samples": 10})
    assert _run(["toy-fit", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    return str(out / "toy_checkpoint.json")


def test_misread_configs_exit_1_naming_the_key(workspace, toy_checkpoint, tmp_path, capsys):
    model, dataset = str(workspace / "model.json"), str(workspace / "dataset.jsonl")
    flow = {"n_joints": 1, "context_dim": 1, "shape_dim": 1}
    cases = [
        ("toy-fit", {"steps": 1, "flow": {**flow, "k_transform": 4}}, "k_transform"),
        ("toy-fit", {"steps": 1, "flow": {**flow, "k_transforms": 0}}, "k_transforms"),
        ("toy-fit", {"steps": 1, "flow": {**flow, "kappa": "2"}}, "kappa"),
        ("toy-fit", {"steps": 1, "batch": 0}, "batch"),
        ("toy-fit", {"steps": 1, "lr": 10 ** 400}, "lr"),
        ("gen-model", {"n_per_joint": 3}, "n_per_joint"),
        ("gen-data", {"model": model, "n_scenes": 1,
                      "rig": {"translation_lo": [0, 0, 2], "translation_hi": [0, 0, 3]}},
         "cameras"),
        ("gen-data", {"model": model, "n_scenes": 1, "noise": {"pixel_scle": 2.0}},
         "pixel_scle"),
        ("gen-data", {"model": model, "n_scenes": 1, "noise": {"pixel_scale": -1.0}},
         "pixel_scale"),
        ("gen-data", {"model": model, "n_scenes": 1, "noise": {"occlusion_prob": 1.5}},
         "occlusion_prob"),
        ("gen-data", {"model": model, "n_scenes": 2.9}, "n_scenes"),
        ("eval", {"model": model, "dataset": dataset, "use_solver": "false"}, "use_solver"),
        ("eval", {"model": model, "dataset": dataset, "experiment": "multiview"},
         "experiment"),
        ("sample", {"checkpoint": toy_checkpoint, "dataset": dataset}, "context"),
        ("eval", {"model": model, "dataset": dataset, "checkpoint": toy_checkpoint},
         "checkpoint"),
    ]
    for command, doc, key in cases:
        out = tmp_path / command
        capsys.readouterr()
        assert _run([command, "--config", _write(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("plain", [
    ("template", "shape_basis", "joint_regressor", "blend_weights", "parents",
     "anchor_indices"),
    ("joint_regressor", "blend_weights", "parents"), ("joint_regressor",), ("parents",),
    ("anchor_indices",)])
def test_gen_data_with_a_model_of_plain_numbers_exit_1(workspace, tmp_path, capsys, plain):
    doc = json.loads((workspace / "model.json").read_text())
    doc.update({key: 1 for key in plain})
    if plain == ("joint_regressor", "blend_weights", "parents"):
        doc.update(joint_regressor=[], blend_weights=[], parents=[])     # no joints at all
    model = _write(tmp_path / "model.json", doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(["gen-data", "--config", _write(tmp_path / "g.json", {"model": model}),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plain[0]} must be "), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key", ["template", "anchor_indices"])
def test_gen_data_with_a_nan_template_or_no_anchors_exit_1_naming_the_key(
        workspace, tmp_path, capsys, key):
    doc = json.loads((workspace / "model.json").read_text())
    if key == "template":
        doc["template"][0][0] = float("nan")
    else:
        doc["anchor_indices"] = []
    model = _write(tmp_path / "model.json", doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(["gen-data", "--config", _write(tmp_path / "g.json", {"model": model}),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must "), err
    assert not out.exists() or not any(out.iterdir())


def test_train_on_a_scene_without_views_exit_1(workspace, tmp_path, capsys):
    lines = (workspace / "dataset.jsonl").read_text().splitlines()
    scene = json.loads(lines[1])
    scene["views"] = []
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([lines[0], json.dumps(scene), *lines[2:]]) + "\n")
    tcfg = _write(tmp_path / "t.json", {"model": str(workspace / "model.json"),
                                        "dataset": str(dataset),
                                        "train": {"phase1_epochs": 1, "phase2_epochs": 0}})
    capsys.readouterr()
    assert _run(["train", "--config", tcfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "views" in err[0], err
    assert not (tmp_path / "checkpoint.json").exists()


@pytest.mark.parametrize("command, keys", [
    ("train", {"train": {"phase1_epochs": 1, "phase2_epochs": 0}}),
    ("eval", {"checkpoint": "checkpoint.json", "n_samples": 2}),
    ("eval", {"checkpoint": "checkpoint.json", "n_samples": 2, "use_solver": True})])
def test_a_view_short_of_an_anchor_exits_1_naming_it(workspace, tmp_path, capsys, command,
                                                      keys):
    lines = (workspace / "dataset.jsonl").read_text().splitlines()
    scene = json.loads(lines[3])
    for key in ("anchors", "gt_anchors", "scale", "aux"):
        scene["views"][0][key] = scene["views"][0][key][:-1]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([*lines[:3], json.dumps(scene), *lines[4:]]) + "\n")
    keys = {k: str(workspace / v) if k == "checkpoint" else v for k, v in keys.items()}
    cfg = _write(tmp_path / "c.json", {"model": str(workspace / "model.json"),
                                       "dataset": str(dataset), **keys})
    capsys.readouterr()
    assert _run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: scene 3 view 0 has 47 anchors, the model 48\n"
    assert not (tmp_path / "out").exists()


def test_toy_fit_without_modes_exit_1_naming_the_bound(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(["toy-fit", "--config", _write(tmp_path / "t.json", {"n_modes": 0}),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_modes must be an integer at least 1, got 0\n"
    assert not out.exists() or not any(out.iterdir())


def test_solve_ragged_anchors_exit_1(workspace, tmp_path, capsys):
    cfg = _solve_config(workspace, tmp_path)
    doc = json.loads(open(cfg).read())
    doc["observations"][0]["anchors"] = [[1, 2], [3]]
    _write(cfg, doc)
    capsys.readouterr()
    assert _run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: anchors_2d must be numbers of shape (None, 2), got ")
    assert not (tmp_path / "solve_result.json").exists()


def test_gen_data_behind_the_camera_exit_1(workspace, tmp_path, capsys):
    rig = {"cameras": [{"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0}],
           "translation_lo": [-0.2, -0.2, -3.2], "translation_hi": [0.2, 0.2, -2.8]}
    cfg = _write(tmp_path / "g.json", {"model": str(workspace / "model.json"), "n_scenes": 2,
                                       "rig": rig})
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(["gen-data", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: camera 0 sees an anchor at depth -")
    assert not any(out.iterdir())


@pytest.fixture(scope="module")
def two_view_dataset(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("two_view")
    cfg = _write(out / "g.json", {"model": str(workspace / "model.json"), "n_scenes": 2,
                                  "rig": "depth_ambiguous", "views": 2})
    assert _run(["gen-data", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    return str(out / "dataset.jsonl")


@pytest.mark.parametrize("sigma, code", [(float("nan"), 1), (float("inf"), 1), (-1.0, 1),
                                         (1e308, 1), (8.0, 0)])
def test_multi_view_init_sigma_deg_exit_code(workspace, two_view_dataset, tmp_path, capsys,
                                             sigma, code):
    cfg = _write(tmp_path / "e.json", {"model": str(workspace / "model.json"),
                                       "dataset": two_view_dataset, "experiment": "multi_view",
                                       "init_sigma_deg": sigma})
    capsys.readouterr()
    assert _run(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: init_sigma_deg must be ")
        assert not (tmp_path / "out").exists()


def test_non_finite_numbers_exit_1_naming_the_key(workspace, toy_checkpoint, tmp_path, capsys):
    pose = [[float("nan"), 0.0, 0.0, 0.0]] + [[1.0, 0.0, 0.0, 0.0]] * 7
    finite = "{} must be finite, got ".format
    cases = [
        ("sample", {"checkpoint": toy_checkpoint, "context": [float("nan")]}, finite("context")),
        ("sample", {"checkpoint": toy_checkpoint, "context": [float("inf")]}, finite("context")),
        ("toy-fit", {"steps": 1, "targets": [[1.0, 0.0, float("-inf"), 0.0]]},
         finite("targets")),
        ("solve", json.loads(open(_solve_config(workspace, tmp_path, pose)).read()),
         finite("pose_init")),
        ("gen-data", {"model": str(workspace / "model.json"), "n_scenes": 1,
                      "rig": {"cameras": [{"fx": 800, "fy": 800, "cx": 320, "cy": 240}],
                              "translation_lo": [0, 0, 2], "translation_hi": [0, 0, np.inf]}},
         "bad rig config: translation_lo and translation_hi must be 3-vectors, lo <= hi, hi - lo "
         "finite\n"),
        ("toy-fit", {"steps": 1, "flow": {"n_joints": 1, "context_dim": 1, "shape_dim": 1,
                                          "kappa": np.inf}},
         "bad flow config: kappa must be a finite number above 0, got inf"),
    ]
    for command, doc, expected in cases:
        out = tmp_path / command
        capsys.readouterr()
        assert _run([command, "--config", _write(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 1, doc
        assert capsys.readouterr().err.startswith(f"error: {expected}")
        assert not out.exists() or not any(out.iterdir())


def test_quoted_numbers_exit_1_naming_the_key(workspace, toy_checkpoint, tmp_path, capsys):
    solve = json.loads(open(_solve_config(workspace, tmp_path)).read())
    quoted = json.loads(json.dumps(solve["observations"][0]["anchors"]), parse_float=str)
    shape = "{} must be numbers of shape {}, got ".format
    cases = [
        ("sample", {"checkpoint": toy_checkpoint, "context": ["0.5"]}, shape("context", "(1,)")),
        ("toy-fit", {"steps": 1, "targets": [["1", "0", "0", "0"]]}, shape("targets", "(None, 4)")),
        ("solve", {**solve, "pose_init": [["1", "0", "0", "0"]] * 8},
         shape("pose_init", "(None, 4) or (None, None, 4)")),
        ("solve", {**solve, "observations": [{**solve["observations"][0], "anchors": quoted}]},
         shape("anchors_2d", "(None, 2)")),
        ("solve", {**solve, "solve": {"beta_prior": "abc"}},
         "bad solve config: " + shape("beta_prior", "(None,)") + "'abc'\n"),
        ("solve", {**solve, "solve": {"beta_prior": [[0.0, 1.0], [2.0]]}},
         "bad solve config: " + shape("beta_prior", "(None,)") + "[[0.0, 1.0], [2.0]]\n"),
        ("solve", {**solve, "solve": {"beta_prior": [[0.0, 1.0]]}},
         "bad solve config: " + shape("beta_prior", "(None,)") + "shape (1, 2)\n"),
    ]
    for command, doc, expected in cases:
        out = tmp_path / command
        capsys.readouterr()
        assert _run([command, "--config", _write(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 1, doc
        assert capsys.readouterr().err.startswith(f"error: {expected}")
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("param", ["cpl0a/b_out", "head_shape/b_out"])
def test_sample_non_finite_checkpoint_parameter_exit_1(toy_checkpoint, tmp_path, capsys, param):
    doc = json.loads(open(toy_checkpoint).read())
    values = np.frombuffer(base64.b64decode(doc["params"][param]["data"]), "<f8").copy()
    values[0] = np.nan
    doc["params"][param]["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    cfg = _write(tmp_path / "s.json", {"checkpoint": _write(tmp_path / "ck.json", doc),
                                       "context": [0.0], "n": 2})
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(["sample", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: checkpoint parameter {param} holds "
                                       "non-finite values\n")
    assert not out.exists() or not any(out.iterdir())


def test_toy_checkpoint_samples_from_a_context(toy_checkpoint, tmp_path):
    cfg = _write(tmp_path / "s.json", {"checkpoint": toy_checkpoint, "context": [0.0], "n": 2})
    assert _run(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(json.loads((tmp_path / "samples.json").read_text())["samples"]) == 3


# any JSON value, small
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
              st.sampled_from([0.5, -1.0, 1e9, float("nan"), float("inf")])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_num = st.one_of(st.integers(-1, 3), st.sampled_from([0.0, 0.5, -0.5, 2.0, float("nan")]),
                 _json)


def _fields_of(cls, **values):
    # a JSON object holding some of cls's fields, or any JSON value
    return st.fixed_dictionaries({}, optional={f.name: values.get(f.name, _num)
                                               for f in dataclasses.fields(cls)}) | _json


def _mutated(doc):
    # doc with any of its values replaced by any JSON value
    return st.fixed_dictionaries({k: st.just(v) | _json for k, v in doc.items()})


def _cheap_configs(workspace, toy_checkpoint):
    from flowpose import solver, synth
    model, dataset = str(workspace / "model.json"), str(workspace / "dataset.jsonl")
    rec = synth.load_dataset(dataset)[0]
    obs = [{"anchors": v.anchors_2d.tolist(), "scale": v.laplace_scale.tolist(),
            "intrinsics": v.intrinsics.tolist()} for v in rec.views]
    pose = [r.to_json() for r in rec.gt_state.pose]
    camera = {"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0}
    paths = st.sampled_from([model, dataset, str(workspace / "missing.json")])
    return {
        "gen-model": {"n_per_joint": st.integers(0, 3) | _json,
                      "n_shape": st.integers(0, 3) | _json, "seed": _num},
        "gen-data": {"model": st.just(model) | paths, "views": _num,
                     "rig": st.sampled_from(["standard", "depth_ambiguous", "bogus"])
                     | _fields_of(synth.RigSpec, cameras=st.lists(
                         _mutated(camera) | _fields_of(synth.Camera), max_size=2) | _json,
                         translation_lo=st.just([-0.1, -0.1, 2.8]) | _json,
                         translation_hi=st.just([0.1, 0.1, 3.2]) | _json),
                     "noise": _fields_of(synth.NoiseSpec)},
        "sample": {"checkpoint": st.sampled_from([str(workspace / "checkpoint.json"),
                                                  toy_checkpoint]) | paths,
                   "n": _num, "context": st.lists(st.floats(-1, 1), max_size=17) | _json,
                   "dataset": st.just(dataset) | paths, "scene": st.integers(-1, 13) | _json},
        "solve": {"model": st.just(model) | paths,
                  "pose_init": st.sampled_from([pose, [pose], [pose, pose], pose[:3]]) | _json,
                  "observations": st.just(obs) | st.lists(_mutated(obs[0]) | _json, max_size=2),
                  "solve": _fields_of(solver.SolveConfig, beta_prior=st.lists(
                      st.floats(-1, 1), max_size=5) | _json)},
    }


@pytest.mark.parametrize("command", ["gen-model", "gen-data", "sample", "solve"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_configs_exit_0_1_or_2(workspace, toy_checkpoint, command, data):
    # a config of any key subset and any values is run, rejected (1) or a
    # numerical failure (2): no exception escapes main
    keys = _cheap_configs(workspace, toy_checkpoint)[command]
    doc = data.draw(st.fixed_dictionaries({}, optional=keys))
    if command == "gen-data":  # at most two scenes
        doc["n_scenes"] = data.draw(st.integers(-1, 2) | st.sampled_from([1.5, "2", True]))
    cfg = _write(workspace / "fuzz.json", doc)
    assert _run([command, "--config", cfg, "--out", str(workspace / "fuzz" / command),
                 "--no-timestamp"]) in (0, 1, 2)


@pytest.mark.parametrize("command, keys", [
    ("eval", {"checkpoint": "checkpoint.json", "n_samples": 2}),
    ("eval", {"experiment": "multi_view"}),
    ("train", {"train": {"phase1_epochs": 1, "phase2_epochs": 0}})])
def test_an_empty_dataset_exits_1_naming_it(workspace, tmp_path, capsys, command, keys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    keys = {k: str(workspace / v) if k == "checkpoint" else v for k, v in keys.items()}
    cfg = _write(tmp_path / "c.json", {"model": str(workspace / "model.json"),
                                       "dataset": str(empty), **keys})
    capsys.readouterr()
    assert _run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: dataset must hold at least one scene\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_scenes", [-1, 0])
def test_gen_data_without_scenes_exits_1_naming_n_scenes(workspace, tmp_path, capsys, n_scenes):
    cfg = _write(tmp_path / "g.json", {"model": str(workspace / "model.json"),
                                       "n_scenes": n_scenes})
    capsys.readouterr()
    assert _run(["gen-data", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: n_scenes must be an integer at least 1")
