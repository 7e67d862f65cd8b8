"""Command-line entry point.

Structured options live in a JSON config (--config); flags cover only
seed, paths and verbosity.  Every subcommand is deterministic given
(config, seed) — outputs are byte-identical apart from the `meta`
block of checkpoints.

Exit codes: 0 success, 1 validation / usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import reprlib
import sys

import numpy as np

from . import __version__
from . import autodiff as ag
from . import body, checkpoint, metrics, selftest as selftest_mod, synth, training
from .checks import check_array, check_fields
from .distributions import uniform_sample
from .flow import FlowConfig, NonConvergenceError
from .rotation import Rotation, matrix_to_quats
from .solver import SolveConfig, SolverFailure, solve, solve_multi_view

FORMAT_VERSIONS = {"model": 1, "checkpoint": checkpoint.FORMAT_VERSION}


class ValidationError(ValueError):
    pass


# every config key of each subcommand and its JSON form: a type, or the
# dataclass a JSON object builds (cls(**object)); --help lists the same forms
CONFIG_KEYS = {
    "gen-model": {"n_per_joint": int, "n_shape": int, "seed": int},
    "gen-data": {"model": str, "n_scenes": int, "rig": (str, synth.RigSpec), "views": int,
                 "noise": synth.NoiseSpec},
    "train": {"model": str, "dataset": str, "train": training.TrainConfig},
    "sample": {"checkpoint": str, "n": int, "context": list, "dataset": str, "scene": int},
    "solve": {"model": str, "pose_init": list, "observations": list, "solve": SolveConfig},
    "eval": {"model": str, "dataset": str, "checkpoint": str, "n_samples": int, "views": int,
             "use_solver": bool, "experiment": str, "init_sigma_deg": float},
    "toy-fit": {"n_modes": int, "targets": list, "steps": int, "batch": int, "lr": float,
                "noise_kappa": float, "flow": FlowConfig, "report_samples": int},
    "selftest": {},
}
_RIGS = {"standard": synth.standard_rig, "depth_ambiguous": synth.depth_ambiguous_rig}


def _form_text(form):
    return "|".join("{" + ", ".join(f.name for f in dataclasses.fields(t)) + "}"
                    if dataclasses.is_dataclass(t) else t.__name__
                    for t in (form if isinstance(form, tuple) else (form,)))


def _schema_epilog():
    parts = ["config keys by subcommand (JSON file passed with --config):"]
    for command, keys in CONFIG_KEYS.items():
        listed = ", ".join(f"{k} {_form_text(form)}" for k, form in keys.items())
        parts.append(f"  {command:<9}: {listed or '(none)'}")
    parts.append(f"  a str rig is {' or '.join(_RIGS)}; solve's pose_init: K quaternions "
                 "(world-frame root) or a list per view (camera root); sample takes context "
                 "or (dataset, scene)")
    return "\n".join(parts)


def _typed(key, value, form):
    """value if its JSON type fits form (an int fits float; a bool fits only
    bool), a JSON object fitting a dataclass built into it."""
    for t in form if isinstance(form, tuple) else (form,):
        if dataclasses.is_dataclass(t) and isinstance(value, dict):
            try:
                return t(**value)
            except (TypeError, ValueError) as e:
                raise ValidationError(f"bad {key} config: {e}")
        if (isinstance(value, (int, float) if t is float else t)
                and (t is bool or not isinstance(value, bool))):
            return value
    raise ValidationError(f"{key} must be {_form_text(form)}, got {reprlib.repr(value)}")


def _load_config(path, allowed):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return {k: _typed(k, v, allowed[k]) for k, v in cfg.items()}


def _given(cfg, *keys):
    """The keys present in cfg, as keyword arguments: absent ones keep the library's defaults."""
    return {k: cfg[k] for k in keys if k in cfg}


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def _default_model(args):
    p = os.path.join(_outdir(args), "model.json")
    if not os.path.exists(p):
        raise ValidationError("no model path in config and no model.json in --out")
    return p


def _encoder(extra, tcfg):
    """The context encoder of a `train` checkpoint."""
    if tcfg is None or "enc/w_in" not in extra.names():
        raise ValidationError("checkpoint has no context encoder (a toy-fit checkpoint): "
                              "sample it from a context")
    return training.make_encoder(extra, tcfg["blocks"])


def cmd_gen_model(args):
    cfg = _load_config(args.config, CONFIG_KEYS["gen-model"])
    if args.seed is not None:
        cfg["seed"] = args.seed
    m = body.make_toy_model(**cfg)
    path = os.path.join(_outdir(args), "model.json")
    body.save_model(m, path)
    print(f"wrote {path} (K={m.n_joints}, N={m.n_vertices}, S={m.n_shape})")
    return 0


def cmd_gen_data(args):
    cfg = _load_config(args.config, CONFIG_KEYS["gen-data"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    rig = cfg.get("rig", "standard")
    if isinstance(rig, str):
        if rig not in _RIGS:
            raise ValidationError(f"unknown rig {rig!r}")
        rig = _RIGS[rig](cfg.get("views", 1))
    path = os.path.join(_outdir(args), "dataset.jsonl")
    recs = synth.gen_dataset(m, cfg.get("n_scenes", 100), rig,
                             cfg.get("noise", synth.NoiseSpec()),
                             args.seed if args.seed is not None else 0, path)
    print(f"wrote {path} ({len(recs)} scenes, {len(rig.cameras)} view(s))")
    return 0


def cmd_train(args):
    cfg = _load_config(args.config, CONFIG_KEYS["train"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    if "dataset" not in cfg:
        raise ValidationError("train config needs a dataset path")
    dataset = synth.load_dataset(cfg["dataset"])
    tcfg = cfg.get("train", training.TrainConfig())
    if args.seed is not None:
        tcfg = dataclasses.replace(tcfg, seed=args.seed)
    flow, extra, log = training.train(m, dataset, tcfg)
    out = _outdir(args)
    ck = os.path.join(out, "checkpoint.json")
    checkpoint.save_checkpoint(ck, flow, extra, tcfg,
                               with_timestamp=not args.no_timestamp)
    logp = os.path.join(out, "train_log.csv")
    with open(logp, "w") as f:
        f.write(training.log_to_csv(log))
    print(f"wrote {ck} and {logp}; final losses: "
          + ", ".join(f"{k}={v:.4f}" for k, v in log[-1].items() if k not in ("epoch", "phase")))
    return 0


def cmd_sample(args):
    cfg = _load_config(args.config, CONFIG_KEYS["sample"])
    if "checkpoint" not in cfg:
        raise ValidationError("sample config needs a checkpoint path")
    flow, extra, tcfg = checkpoint.load_checkpoint(cfg["checkpoint"])
    if "context" in cfg:
        ctx = check_array("context", cfg["context"], (flow.cfg.context_dim,))
    elif "dataset" in cfg:
        dataset = synth.load_dataset(cfg["dataset"])
        scene = cfg.get("scene", 0)
        if not 0 <= scene < len(dataset):
            raise ValidationError(
                f"scene must be an index below {len(dataset)}, got {scene!r}")
        ctx = _encoder(extra, tcfg)(dataset[scene].context_features)
    else:
        raise ValidationError("sample config needs either context or dataset")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    draws = flow.flow_sample(ctx, cfg.get("n", 10), rng, include_mode=True)
    quats = matrix_to_quats(draws.rotations.reshape(-1, 3, 3)).reshape(len(draws), -1, 4)
    doc = {"samples": [{"is_mode": i == 0, "joint_rotations": q, "shape": s, "log_prob": lp}
                       for i, (q, s, lp) in enumerate(zip(quats.tolist(), draws.shapes.tolist(),
                                                          draws.log_probs.tolist()))]}
    path = _write_json(os.path.join(_outdir(args), "samples.json"), doc)
    print(f"wrote {path}")
    return 0


def cmd_solve(args):
    cfg = _load_config(args.config, CONFIG_KEYS["solve"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    if "observations" not in cfg or "pose_init" not in cfg:
        raise ValidationError("solve config needs pose_init and observations")
    obs = [synth.observation_from_json(o) for o in cfg["observations"]]
    scfg = cfg.get("solve", SolveConfig())
    pose = check_array("pose_init", cfg["pose_init"], (None, 4), (None, None, 4))
    if pose.ndim == 3:
        res = solve_multi_view(m, [[Rotation(q) for q in view] for view in pose], obs, scfg)
    else:
        res = solve(m, [Rotation(q) for q in pose], obs, scfg)
    doc = {"pose": matrix_to_quats(res.pose).tolist(),
           "delta_vectors": res.delta_vectors.tolist(),
           "beta": res.beta.tolist(),
           "translation": res.translation.tolist(),
           "weighted_rms_residual": res.weighted_rms_residual,
           "per_anchor_residuals": res.per_anchor_residuals.tolist(),
           "n_relinearizations": res.n_relinearizations}
    path = _write_json(os.path.join(_outdir(args), "solve_result.json"), doc)
    print(f"wrote {path} (rms {res.weighted_rms_residual:.4f} px)")
    return 0


def cmd_eval(args):
    cfg = _load_config(args.config, CONFIG_KEYS["eval"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    if "dataset" not in cfg:
        raise ValidationError("eval config needs a dataset path")
    if cfg.get("experiment", "multi_view") != "multi_view":
        raise ValidationError(f"experiment must be multi_view, got {cfg['experiment']!r}")
    if "experiment" not in cfg and "checkpoint" not in cfg:
        raise ValidationError("eval config needs a checkpoint path")
    dataset = synth.load_dataset(cfg["dataset"])
    seed = args.seed if args.seed is not None else 0
    if "experiment" in cfg:
        doc = metrics.multi_view_trend(m, dataset, seed=seed, **_given(cfg, "init_sigma_deg"))
    else:
        flow, extra, tcfg = checkpoint.load_checkpoint(cfg["checkpoint"])
        doc = metrics.evaluate(flow, _encoder(extra, tcfg), m, dataset, rng_seed=seed,
                               **_given(cfg, "n_samples", "use_solver", "views"))
    path = _write_json(os.path.join(_outdir(args), "metrics.json"), doc)
    print(f"wrote {path}")
    print(json.dumps(doc.get("summary", doc), indent=1))
    return 0


def cmd_toy_fit(args):
    cfg = _load_config(args.config, CONFIG_KEYS["toy-fit"])
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    if "targets" in cfg:
        targets = [Rotation(q) for q in check_array("targets", cfg["targets"], (None, 4))]
    else:
        n_modes = cfg.get("n_modes", 4)
        check_fields({"n_modes": n_modes}, int, least=1)
        targets = [uniform_sample(rng) for _ in range(n_modes)]
    flow, report = training.fit_toy_distribution(
        targets, cfg.get("flow"), seed=seed,
        **_given(cfg, "steps", "batch", "lr", "noise_kappa", "report_samples"))
    report["targets"] = [t.to_json() for t in targets]
    out = _outdir(args)
    checkpoint.save_checkpoint(os.path.join(out, "toy_checkpoint.json"), flow,
                               with_timestamp=not args.no_timestamp)
    path = _write_json(os.path.join(out, "toy_report.json"), report)
    print(f"wrote {path}")
    print(json.dumps({k: report[k] for k in
                      ("nll_before", "nll_after", "captured_fraction",
                       "per_mode_mass")}, indent=1))
    return 0


def cmd_selftest(args):
    report = selftest_mod.run_selftest(args.seed if args.seed is not None else 0)
    print(selftest_mod.format_report(report))
    if args.out:
        _write_json(os.path.join(_outdir(args), "selftest.json"), report)
    return 0 if report["ok"] else 2


COMMANDS = {
    "gen-model": cmd_gen_model,
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sample": cmd_sample,
    "solve": cmd_solve,
    "eval": cmd_eval,
    "toy-fit": cmd_toy_fit,
    "selftest": cmd_selftest,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="flowpose",
        description=__doc__,
        epilog=_schema_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version",
                   version=f"flowpose {__version__} "
                           f"(formats: {json.dumps(FORMAT_VERSIONS)})")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the meta timestamp from checkpoints")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return COMMANDS[args.command](args)
    # DomainError subclasses ValueError: test it first
    except (SolverFailure, NonConvergenceError, training.TrainingAborted,
            ag.DomainError, np.linalg.LinAlgError,
            FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
