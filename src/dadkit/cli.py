"""Command-line surface: synth | train | distill | detect | eval | gradcheck.

Every command merges an optional key=value config file with flag overrides
(flags win), validates the result against its own key table (unknown or
malformed keys are reported by name), runs, and echoes the effective values
into the output's meta.txt.  Exit codes: 0 success, 1 validation error,
2 runtime failure.  Given a fixed seed and config, every command rewrites
its artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .distill import MERGE_EXPONENTS, DistillConfig, train_distilled
from .errors import ConfigError, DadkitError, InvalidParameterError
from .evaluate import EvalConfig, evaluate_detections
from .formats import (config_meta, generate_dataset, load_dataset, load_pair, pair_dirs,
                      read_config_file, read_keypoints_csv, read_pgm, write_command_meta, write_dadf,
                      write_distill_loss_csv, write_gradcheck_report, write_keypoints_csv,
                      write_loss_csv, write_pgm, write_report)
from .gradcheck import FAMILIES, MARGIN_GATE, run_gradcheck
from .model import AdamW, ArchConfig, TrainConfig, forward, load_weights, save_weights, train_loop
from .objective import RewardConfig
from .sampler import SamplerConfig, sample_keypoints
from .synth import SceneConfig


REQUIRED = object()


class KeySpec(NamedTuple):
    cast: Callable[[str], object]
    default: object
    help: str


def _cast_int(s: str) -> int:
    return int(s.strip())


def _cast_float(s: str) -> float:
    v = float(s.strip())  # accepts "inf"
    if math.isnan(v):
        raise ValueError("not a number")
    return v


def _cast_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _cast_str(s: str) -> str:
    return s.strip()


def _cast_ints(s: str) -> tuple[int, ...]:
    toks = [t.strip() for t in s.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty integer list")
    return tuple(int(t) for t in toks)


def _cast_strs(s: str) -> tuple[str, ...]:
    toks = [t.strip() for t in s.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty list")
    return tuple(toks)


def _choice(*options: str) -> Callable[[str], str]:
    def cast(s: str) -> str:
        t = s.strip()
        if t not in options:
            raise ValueError(f"must be one of: {', '.join(options)}")
        return t

    return cast


def _at_least(lo: int) -> Callable[[str], int]:
    def cast(s: str) -> int:
        v = _cast_int(s)
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        return v

    return cast


_cast_count = _at_least(1)
_cast_seed = _at_least(0)  # numpy seeds only non-negative integers


# A library-backed key is named after its field, defaults to the field's
# default, and sets the field in `_build`.  These keys are named otherwise:
_RENAMED = {
    ArchConfig: {"channel_widths": "widths"},
    AdamW: {"eps": "eps_opt"},
    RewardConfig: {"eps": "reward_eps"},
    SamplerConfig: {"k": "topk"},
    TrainConfig: {"batch": "threads"},
}


def _build(base, cfg: dict, **fixed):
    """`base` with each field whose key has a value (not None) in cfg set to it.

    A field holding a config is built the same way from its own value;
    `fixed` fields are taken as given.  A renamed field's error names its
    key in place of the field (see InvalidParameterError).
    """
    renamed, kw = _RENAMED.get(type(base), {}), {}
    for f in fields(base):
        value, key = getattr(base, f.name), renamed.get(f.name, f.name)
        if is_dataclass(value) and f.name not in fixed:
            kw[f.name] = _build(value, cfg)
        elif cfg.get(key) is not None:
            kw[f.name] = cfg[key]
    try:
        return replace(base, **{**kw, **fixed})
    except InvalidParameterError as e:
        field, _, rest = str(e).partition(" ")
        if field not in renamed:
            raise
        raise InvalidParameterError(f"{renamed[field]} {rest}") from None


# Scene keys default to None = "inherit from the selected mode's base config".
_SCENE_KEYS = {
    "mode": KeySpec(_choice("toy", "scenes"), "toy", "generator family: toy dots or textured scenes"),
    "size": KeySpec(_cast_int, None, "image side in pixels"),
    "num_light": KeySpec(_cast_int, None, "light structures per image"),
    "num_dark": KeySpec(_cast_int, None, "dark structures per image"),
    "shape_palette": KeySpec(_cast_strs, None, "comma list from dot,cross,blob,corner"),
    "background_gray": KeySpec(_cast_float, None, "background level in (0,1)"),
    "rotation_aug": KeySpec(_cast_bool, None, "compose a random 90-degree rotation into the pair"),
    "negation_aug": KeySpec(_choice("off", "rgb"), None, "negate image B and flip its polarity labels"),
    "min_separation": KeySpec(_cast_float, None, "minimum center distance in pixels"),
    "margin": KeySpec(_cast_float, None, "keep-out border for centers"),
    "noise_sigma": KeySpec(_cast_float, None, "texture amplitude"),
    "hm_perspective_jitter": KeySpec(_cast_float, None, "homography perspective term scale"),
    "hm_max_translation": KeySpec(_cast_float, None, "homography translation, fraction of size"),
    "hm_scale_lo": KeySpec(_cast_float, None, "homography scale range low end"),
    "hm_scale_hi": KeySpec(_cast_float, None, "homography scale range high end"),
    "hm_max_rotation_deg": KeySpec(_cast_float, None, "homography in-plane rotation bound"),
}

_ARCH_KEYS = {
    "widths": KeySpec(_cast_ints, ArchConfig.channel_widths, "conv channel widths, comma separated"),
    "kernel_size": KeySpec(_cast_int, ArchConfig.kernel_size, "odd conv kernel side"),
}

_OPT_KEYS = {
    "lr": KeySpec(_cast_float, AdamW.lr, "learning rate"),
    "beta1": KeySpec(_cast_float, AdamW.beta1, "first-moment decay"),
    "beta2": KeySpec(_cast_float, AdamW.beta2, "second-moment decay"),
    "eps_opt": KeySpec(_cast_float, AdamW.eps, "optimizer denominator floor"),
    "weight_decay": KeySpec(_cast_float, AdamW.weight_decay, "decoupled weight decay"),
}


def _sampler_keys(base: SamplerConfig) -> dict[str, KeySpec]:
    return {
        "topk": KeySpec(_cast_int, base.k, "keypoint budget per image"),
        "nms_window": KeySpec(_cast_int, base.nms_window, "odd suppression window side"),
        "use_kde": KeySpec(_cast_bool, base.use_kde, "density balancing during training-mode sampling"),
        "kde_sigma_frac": KeySpec(_cast_float, base.kde_sigma_frac,
                                  "density bandwidth, fraction of min side"),
        "subpixel": KeySpec(_cast_bool, base.subpixel, "refine inference keypoints to subpixel"),
        "subpixel_temp": KeySpec(_cast_float, base.subpixel_temp, "refinement softmax temperature"),
        "subpixel_window": KeySpec(_cast_int, base.subpixel_window, "odd refinement window side"),
    }


# Only train uses `threads`, as its batch size.  The other commands accept it,
# so that existing command lines keep working, and run sequentially.
_THREADS = KeySpec(_cast_count, 1, "accepted for compatibility (>= 1); runs sequentially")

SYNTH_KEYS = {
    "out": KeySpec(_cast_str, REQUIRED, "dataset directory to create"),
    "num_pairs": KeySpec(_cast_int, 100, "pairs to generate (0 = just the meta)"),
    "seed": KeySpec(_cast_seed, 0, "stream seed; pair i draws from (seed, i)"),
    "threads": _THREADS,
    **_SCENE_KEYS,
}

TRAIN_KEYS = {
    "data": KeySpec(_cast_str, REQUIRED, "dataset directory from synth"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for weights/loss/meta"),
    "seed": KeySpec(_cast_seed, ArchConfig.seed, "weight initialization seed"),
    "threads": KeySpec(_cast_count, TrainConfig.batch, "batch size: pairs per optimizer step"),
    "epochs": KeySpec(_cast_int, TrainConfig.epochs, "sweeps over the dataset"),
    **{k: v for k, v in _sampler_keys(TrainConfig().sampler).items() if not k.startswith("subpixel")},
    "tau_r": KeySpec(_cast_float, RewardConfig.tau_r, "reward radius in pixels"),
    "reward_eps": KeySpec(_cast_float, RewardConfig.eps, "reward normalization epsilon"),
    "linear_decay": KeySpec(_cast_bool, RewardConfig.linear_decay,
                            "ramp reward down linearly inside the radius"),
    "reg_sigma_frac": KeySpec(_cast_float, TrainConfig.reg_sigma_frac,
                              "coverage blur width, fraction of min side"),
    "reg_weight": KeySpec(_cast_float, TrainConfig.reg_weight,
                          "coverage regularizer weight (0 disables)"),
    "match_threshold": KeySpec(_cast_float, TrainConfig.match_threshold,
                               "mutual-match distance cutoff in pixels"),
    "assign_radius": KeySpec(_cast_float, TrainConfig.assign_radius,
                             "toy identity assignment radius in pixels"),
    **_OPT_KEYS,
    **_ARCH_KEYS,
}

DISTILL_KEYS = {
    "light": KeySpec(_cast_str, REQUIRED, "light-biased teacher weights file"),
    "dark": KeySpec(_cast_str, REQUIRED, "dark-biased teacher weights file"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for student/loss/meta"),
    "seed": KeySpec(_cast_seed, DistillConfig.seed, "student init and data stream seed"),
    "threads": _THREADS,
    # kept as text, so that meta.txt echoes it as given
    "r": KeySpec(_choice(*(f"{r:g}" for r in MERGE_EXPONENTS)), f"{DistillConfig.r:g}",
                 "merge exponent for the teacher blend"),
    "num_pairs": KeySpec(_cast_int, DistillConfig.num_pairs, "generated pairs (two steps each)"),
    **_OPT_KEYS,
    **_ARCH_KEYS,
    **{**_SCENE_KEYS, "mode": KeySpec(_choice("toy", "scenes"), "scenes", "generator family for student data")},
}

DETECT_KEYS = {
    "weights": KeySpec(_cast_str, REQUIRED, "detector weights file"),
    "image": KeySpec(_cast_str, None, "single PGM image (writes one CSV to --out)"),
    "data": KeySpec(_cast_str, None, "dataset directory (writes per-pair a.csv/b.csv under --out)"),
    "out": KeySpec(_cast_str, REQUIRED, "CSV path (with --image) or output directory (with --data)"),
    "mode": KeySpec(_choice("train", "inference"), "inference", "sampling mode"),
    "threads": _THREADS,
    **_sampler_keys(SamplerConfig()),
    "dump_scoremap": KeySpec(_cast_str, None, "also write the raw scoremap grid here (--image only)"),
    "overlay": KeySpec(_cast_str, None, "also write a keypoint-overlay PGM here (--image only)"),
}

EVAL_KEYS = {
    "data": KeySpec(_cast_str, REQUIRED, "dataset directory from synth"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for report.txt/per_pair.csv/meta"),
    "detections": KeySpec(_cast_str, None, "directory of per-pair a.csv/b.csv keypoints"),
    "weights": KeySpec(_cast_str, None, "detector weights to run instead of stored detections"),
    "seed": KeySpec(_cast_seed, EvalConfig.seed, "robust-fit sampling seed"),
    "threads": _THREADS,
    "mode": KeySpec(_choice("train", "inference"), "inference", "sampling mode (with --weights)"),
    **_sampler_keys(SamplerConfig()),
    "match_threshold": KeySpec(_cast_float, EvalConfig.match_threshold,
                               "repeatability match radius in pixels"),
    "ransac_threshold": KeySpec(_cast_float, EvalConfig.ransac_threshold,
                                "robust-fit inlier radius in pixels"),
    "ransac_iterations": KeySpec(_cast_int, EvalConfig.ransac_iterations, "robust-fit minimal samples"),
    "auc_threshold": KeySpec(_cast_float, EvalConfig.auc_threshold,
                             "corner-error curve cutoff in pixels"),
    "recall_radius": KeySpec(_cast_float, EvalConfig.recall_radius,
                             "ground-truth recall radius in pixels"),
    "hit_radius": KeySpec(_cast_float, EvalConfig.hit_radius, "toy identity hit radius in pixels"),
}

_GRADCHECK = {name: p.default for name, p in inspect.signature(run_gradcheck).parameters.items()}
GRADCHECK_KEYS = {
    "instances": KeySpec(_cast_int, _GRADCHECK["instances"], "randomized instances to check"),
    "seed": KeySpec(_cast_seed, _GRADCHECK["seed"], "suite seed"),
    "step": KeySpec(_cast_float, _GRADCHECK["step"],
                    "central-difference step; the margin gate was set for 1e-6 to 2e-4"),
    "tolerance": KeySpec(_cast_float, _GRADCHECK["tolerance"],
                         "max elementwise relative error allowed; the normwise margin "
                         f"gate stays {MARGIN_GATE:g}"),
    "out": KeySpec(_cast_str, None, "optional report file"),
}


def resolve_config(table: dict[str, KeySpec], args: argparse.Namespace) -> dict:
    """Merge config file and flags into a validated key -> value map."""
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(read_config_file(args.config))
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown config key '{key}'")
    for key in table:  # flags win over file values
        v = getattr(args, key)
        if v is not None:
            raw[key] = v
    cfg: dict = {}
    for key, ks in table.items():
        if key in raw:
            try:
                cfg[key] = ks.cast(raw[key])
            except ValueError as e:
                raise ConfigError(f"bad value for key '{key}': {e}")
        elif ks.default is REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        else:
            cfg[key] = ks.default
    return cfg


def _build_scene_config(cfg: dict) -> SceneConfig:
    return _build(SceneConfig.toy() if cfg["mode"] == "toy" else SceneConfig.scenes(), cfg)


def _overlay_image(image, kps) -> np.ndarray:
    """Plus-shaped contrast markers at the keypoint pixels."""
    img = np.array(image, dtype=np.float64)
    h, w = img.shape
    for x, y in kps.pixels.tolist():
        ink = 1.0 if img[y, x] < 0.5 else 0.0
        for dy, dx in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < h and 0 <= xx < w:
                img[yy, xx] = ink
    return img


def _detect_pair(params, scfg: SamplerConfig, mode: str, images) -> tuple:
    """Keypoints of each image of a pair, in order."""
    return tuple(sample_keypoints(forward(params, img)[0], scfg, mode) for img in images)


def cmd_synth(cfg: dict) -> int:
    scene = _build_scene_config(cfg)
    paths = generate_dataset(cfg["out"], scene, cfg["num_pairs"], cfg["seed"])
    write_command_meta(Path(cfg["out"]) / "meta.txt", "synth", cfg,
                       extra={"kind": scene.kind, "count": cfg["num_pairs"], **config_meta(scene)})
    print(f"generated {len(paths)} {scene.kind} pair(s) under {cfg['out']}")
    return 0


def cmd_train(cfg: dict) -> int:
    tc = _build(TrainConfig(), cfg)
    pairs = load_dataset(cfg["data"])
    params, reports = train_loop(pairs, tc)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    save_weights(outd / "weights.dadw", params)
    write_loss_csv(outd / "loss.csv", reports)
    write_command_meta(outd / "meta.txt", "train", cfg,
                       extra={"num_pairs": len(pairs), "steps": len(reports)})
    tail = reports[-min(100, len(reports)):]
    mean_reward = sum(r.mean_raw_reward for r in tail) / len(tail)
    print(f"trained {len(reports)} step(s) on {len(pairs)} pair(s); "
          f"tail mean reward {mean_reward:.3f}; weights -> {outd / 'weights.dadw'}")
    return 0


def cmd_distill(cfg: dict) -> int:
    dc = _build(DistillConfig(), cfg, scene=_build_scene_config(cfg), r=float(cfg["r"]))
    student, losses = train_distilled(load_weights(cfg["light"]), load_weights(cfg["dark"]), dc)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    save_weights(outd / "student.dadw", student)
    write_distill_loss_csv(outd / "loss.csv", losses)
    write_command_meta(outd / "meta.txt", "distill", cfg, extra={"steps": len(losses)})
    print(f"distilled student over {cfg['num_pairs']} pair(s); "
          f"final loss {losses[-1]:.6g}; weights -> {outd / 'student.dadw'}")
    return 0


def cmd_detect(cfg: dict) -> int:
    if (cfg["image"] is None) == (cfg["data"] is None):
        raise ConfigError("exactly one of keys 'image' and 'data' is required")
    scfg = _build(SamplerConfig(), cfg)
    params = load_weights(cfg["weights"])

    if cfg["image"] is not None:
        img = read_pgm(cfg["image"])
        smap, _ = forward(params, img)
        kps = sample_keypoints(smap, scfg, cfg["mode"])
        out = Path(cfg["out"])
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        write_keypoints_csv(out, kps)
        if cfg["dump_scoremap"] is not None:
            write_dadf(cfg["dump_scoremap"], smap)
        if cfg["overlay"] is not None:
            write_pgm(cfg["overlay"], _overlay_image(img, kps))
        print(f"{len(kps)} keypoint(s) -> {out}")
        return 0

    if cfg["dump_scoremap"] is not None or cfg["overlay"] is not None:
        raise ConfigError("keys 'dump_scoremap' and 'overlay' require key 'image'")
    dirs = pair_dirs(cfg["data"])
    results = [_detect_pair(params, scfg, cfg["mode"],
                            (read_pgm(d / "a.pgm"), read_pgm(d / "b.pgm"))) for d in dirs]
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    total = 0
    for d, res in zip(dirs, results):
        pd = outd / d.name
        pd.mkdir(parents=True, exist_ok=True)
        for name, kps in zip(("a", "b"), res):
            write_keypoints_csv(pd / f"{name}.csv", kps)
            total += len(kps)
    write_command_meta(outd / "meta.txt", "detect", cfg, extra={"num_pairs": len(dirs)})
    print(f"{total} keypoint(s) across {len(dirs)} pair(s) -> {outd}")
    return 0


def cmd_eval(cfg: dict) -> int:
    if (cfg["detections"] is None) == (cfg["weights"] is None):
        raise ConfigError("exactly one of keys 'detections' and 'weights' is required")
    scfg, ecfg = _build(SamplerConfig(), cfg), _build(EvalConfig(), cfg)
    dirs = pair_dirs(cfg["data"])
    pairs = [load_pair(d) for d in dirs]

    if cfg["detections"] is not None:
        det_root = Path(cfg["detections"])
        detections = []
        for d, pair in zip(dirs, pairs):
            ka = read_keypoints_csv(det_root / d.name / "a.csv", pair.image_a.shape)
            kb = read_keypoints_csv(det_root / d.name / "b.csv", pair.image_b.shape)
            detections.append((ka, kb))
    else:
        params = load_weights(cfg["weights"])
        detections = [_detect_pair(params, scfg, cfg["mode"], (p.image_a, p.image_b))
                      for p in pairs]

    summary, rows = evaluate_detections(pairs, detections, ecfg)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    write_report(outd / "report.txt", outd / "per_pair.csv", summary, rows)
    write_command_meta(outd / "meta.txt", "eval", cfg, extra={"num_pairs": len(pairs)})
    for k in sorted(summary):
        print(f"{k}={summary[k]:.9g}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    res = run_gradcheck(instances=cfg["instances"], seed=cfg["seed"],
                        step=cfg["step"], tolerance=cfg["tolerance"])
    for fam in FAMILIES:
        print(f"{fam}: max rel error {res.family_errors[fam]:.3e}, "
              f"normwise margin {res.family_margins[fam]:.3e}")
    print(f"smallest gradient scale {res.min_grad_scale:.3e}; "
          f"{res.zero_grad_redraws} zero-gradient instance(s) redrawn")
    print(f"overall: {res.max_rel_error:.3e} over {res.instances} instance(s), "
          f"tolerance {res.tolerance:g}, normwise margin gate {MARGIN_GATE:g}: "
          f"{'PASS' if res.passed else 'FAIL'}")
    if cfg["out"] is not None:
        write_gradcheck_report(cfg["out"], res)
    return 0 if res.passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise ConfigError(message)


_COMMANDS = {
    "synth": (SYNTH_KEYS, cmd_synth, "generate a synthetic pair dataset"),
    "train": (TRAIN_KEYS, cmd_train, "train a detector on a dataset"),
    "distill": (DISTILL_KEYS, cmd_distill, "merge two teachers into a student"),
    "detect": (DETECT_KEYS, cmd_detect, "run a detector and write keypoint CSVs"),
    "eval": (EVAL_KEYS, cmd_eval, "score detections against ground truth"),
    "gradcheck": (GRADCHECK_KEYS, cmd_gradcheck, "finite-difference gradient audit"),
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of every command; only `command`'s subparser gets its flags.
    argparse consults only the invoked command's subparser, so building the
    others' flags is waste."""
    parser = _Parser(prog="dadkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (table, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        if name != command:
            continue
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key=value file; flags override its entries")
        for key, ks in table.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           metavar="V", help=ks.help)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """Each `--flag value` as one `--flag=value` word.  Every flag takes one
    value, and argparse would read a value such as -inf as an option."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and out[-1] not in ("--", "--help") and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    words = _joined(sys.argv[1:] if argv is None else list(argv))
    # the command is the first word that is not an option: the top-level
    # parser takes no option with a value
    parser = build_parser(next((w for w in words if not w.startswith("-")), ""))
    try:
        args = parser.parse_args(words)
        table, run, _ = _COMMANDS[args.command]
        return run(resolve_config(table, args))
    except ConfigError as e:
        print(f"dadkit: {e}", file=sys.stderr)
        return 1
    except InvalidParameterError as e:
        print(f"dadkit: invalid parameter: {e}", file=sys.stderr)
        return 1
    except DadkitError as e:
        print(f"dadkit: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"dadkit: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
