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
import sys

import numpy as np

from . import __version__
from . import autodiff as ag
from . import body, checkpoint, metrics, selftest as selftest_mod, synth, training
from .flow import FlowConfig, NonConvergenceError
from .rotation import Rotation, matrix_to_quat_batch
from .solver import SolveConfig, SolverFailure, solve, solve_multi_view

FORMAT_VERSIONS = {"model": 1, "checkpoint": checkpoint.FORMAT_VERSION}


class ValidationError(ValueError):
    pass


def _fields(cls):
    return "{" + ", ".join(f.name for f in dataclasses.fields(cls)) + "}"


# the config keys each subcommand accepts; --help also shows the nested keys
# or the forms of the structured ones
CONFIG_KEYS = {
    "gen-model": ["n_per_joint", "n_shape", "seed"],
    "gen-data": ["model", "n_scenes", "rig", "views", "noise"],
    "train": ["model", "dataset", "train"],
    "sample": ["checkpoint", "n", "context", "dataset", "scene"],
    "solve": ["model", "pose_init", "observations", "solve"],
    "eval": ["model", "dataset", "checkpoint", "n_samples", "views", "use_solver",
             "experiment", "init_sigma_deg"],
    "toy-fit": ["n_modes", "targets", "steps", "batch", "lr", "noise_kappa", "flow",
                "report_samples"],
    "selftest": [],
}
_KEY_FORMS = {"rig": "(standard|depth_ambiguous|{...})", "noise": _fields(synth.NoiseSpec),
              "train": _fields(training.TrainConfig), "solve": _fields(SolveConfig),
              "flow": _fields(FlowConfig)}


def _schema_epilog():
    parts = ["config keys by subcommand (JSON file passed with --config):"]
    for command, keys in CONFIG_KEYS.items():
        listed = ", ".join(f"{k} {_KEY_FORMS.get(k, '')}".rstrip() for k in keys)
        parts.append(f"  {command:<9}: {listed or '(none)'}")
    parts.append("  solve's pose_init: K quaternions (world-frame root) or a list per view "
                 "(camera root); sample takes context or (dataset, scene)")
    return "\n".join(parts)


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
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def _rig_from_config(cfg, views):
    rig = cfg.get("rig", "standard")
    if rig == "standard":
        return synth.standard_rig(views)
    if rig == "depth_ambiguous":
        return synth.depth_ambiguous_rig(views)
    if isinstance(rig, dict):
        return synth.RigSpec.from_json(rig)
    raise ValidationError(f"unknown rig {rig!r}")


def cmd_gen_model(args):
    cfg = _load_config(args.config, CONFIG_KEYS["gen-model"])
    seed = args.seed if args.seed is not None else cfg.get("seed", 20240214)
    m = body.make_toy_model(cfg.get("n_per_joint", 12), cfg.get("n_shape", 4), seed)
    path = os.path.join(_outdir(args), "model.json")
    body.save_model(m, path)
    print(f"wrote {path} (K={m.n_joints}, N={m.n_vertices}, S={m.n_shape})")
    return 0


def cmd_gen_data(args):
    cfg = _load_config(args.config, CONFIG_KEYS["gen-data"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    views = int(cfg.get("views", 1))
    rig = _rig_from_config(cfg, views)
    noise = synth.NoiseSpec.from_json(cfg.get("noise", {}))
    seed = args.seed if args.seed is not None else 0
    path = os.path.join(_outdir(args), "dataset.jsonl")
    recs = synth.gen_dataset(m, int(cfg.get("n_scenes", 100)), rig, noise,
                             seed, path)
    print(f"wrote {path} ({len(recs)} scenes, {views} view(s))")
    return 0


def _default_model(args):
    p = os.path.join(_outdir(args), "model.json")
    if not os.path.exists(p):
        raise ValidationError("no model path in config and no model.json in --out")
    return p


def cmd_train(args):
    cfg = _load_config(args.config, CONFIG_KEYS["train"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    if "dataset" not in cfg:
        raise ValidationError("train config needs a dataset path")
    dataset = synth.load_dataset(cfg["dataset"])
    tdict = dict(cfg.get("train", {}))
    if args.seed is not None:
        tdict["seed"] = args.seed
    try:
        tcfg = training.TrainConfig(**tdict)
    except TypeError as e:
        raise ValidationError(f"bad train config: {e}")
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
        ctx = np.asarray(cfg["context"], float)
    elif "dataset" in cfg:
        dataset = synth.load_dataset(cfg["dataset"])
        scene = cfg.get("scene", 0)
        if not isinstance(scene, int) or not 0 <= scene < len(dataset):
            raise ValidationError(
                f"scene must be an index below {len(dataset)}, got {scene!r}")
        rec = dataset[scene]
        blocks = (tcfg or {}).get("blocks", 2)
        ctx = training.make_encoder(extra, blocks)(rec.context_features)
    else:
        raise ValidationError("sample config needs either context or dataset")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    samples = flow.flow_sample(ctx, cfg.get("n", 10), rng, include_mode=True)
    doc = {"samples": [{"is_mode": i == 0,
                        "joint_rotations": [r.to_json() for r in s.joint_rotations],
                        "shape": np.asarray(s.shape).tolist(),
                        "log_prob": s.log_prob} for i, s in enumerate(samples)]}
    path = _write_json(os.path.join(_outdir(args), "samples.json"), doc)
    print(f"wrote {path}")
    return 0


def cmd_solve(args):
    cfg = _load_config(args.config, CONFIG_KEYS["solve"])
    m = body.load_model(cfg.get("model") or _default_model(args))
    if "observations" not in cfg or "pose_init" not in cfg:
        raise ValidationError("solve config needs pose_init and observations")
    obs = [synth.observation_from_json(o) for o in cfg["observations"]]
    sdict = dict(cfg.get("solve", {}))
    try:
        scfg = SolveConfig(**sdict)
    except TypeError as e:
        raise ValidationError(f"bad solve config: {e}")
    pose_cfg = cfg["pose_init"]
    if not pose_cfg or not pose_cfg[0]:
        raise ValidationError("solve config's pose_init is empty")
    if isinstance(pose_cfg[0][0], list):
        res = solve_multi_view(m, [[Rotation(np.asarray(q, float)) for q in view]
                                   for view in pose_cfg], obs, scfg)
    else:
        res = solve(m, [Rotation(np.asarray(q, float)) for q in pose_cfg], obs, scfg)
    doc = {"pose": [r.to_json() for r in matrix_to_quat_batch(res.pose)],
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
    dataset = synth.load_dataset(cfg["dataset"])
    views = args.views if args.views is not None else int(cfg.get("views", 1))
    seed = args.seed if args.seed is not None else 0
    if cfg.get("experiment") == "multi_view":
        doc = metrics.multi_view_trend(m, dataset,
                                       cfg.get("init_sigma_deg", 8.0), seed)
    else:
        if "checkpoint" not in cfg:
            raise ValidationError("eval config needs a checkpoint path")
        flow, extra, tcfg = checkpoint.load_checkpoint(cfg["checkpoint"])
        blocks = (tcfg or {}).get("blocks", 2)
        encode = training.make_encoder(extra, blocks)
        doc = metrics.evaluate(flow, encode, m, dataset,
                               n_samples=int(cfg.get("n_samples", 100)),
                               use_solver=bool(cfg.get("use_solver", False)),
                               views=views, rng_seed=seed)
    path = _write_json(os.path.join(_outdir(args), "metrics.json"), doc)
    print(f"wrote {path}")
    if "summary" in doc:
        print(json.dumps(doc["summary"], indent=1))
    else:
        print(json.dumps(doc, indent=1))
    return 0


def cmd_toy_fit(args):
    cfg = _load_config(args.config, CONFIG_KEYS["toy-fit"])
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    if "targets" in cfg:
        targets = [Rotation(np.asarray(q, float)) for q in cfg["targets"]]
    else:
        from .distributions import uniform_sample
        targets = [uniform_sample(rng) for _ in range(int(cfg.get("n_modes", 4)))]
    fcfg = FlowConfig(**cfg["flow"]) if "flow" in cfg else None
    flow, report = training.fit_toy_distribution(
        targets, fcfg, steps=int(cfg.get("steps", 3000)),
        batch=int(cfg.get("batch", 128)), lr=float(cfg.get("lr", 1e-3)),
        noise_kappa=float(cfg.get("noise_kappa", 24.0)), seed=seed,
        report_samples=int(cfg.get("report_samples", 10000)))
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
    p.add_argument("--views", type=int, default=None,
                   help="view count override for eval")
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
