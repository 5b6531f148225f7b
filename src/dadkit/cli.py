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
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import _read_text, write_dadf
from .distill import DistillConfig, train_distilled
from .errors import ConfigError, DadkitError, InvalidInputError, InvalidParameterError
from .evaluate import EvalConfig, evaluate_detections, write_report
from .gradcheck import FAMILIES, run_gradcheck
from .model import (AdamW, ArchConfig, TrainConfig, _ordered_map, forward,
                    load_weights, save_weights, train_loop, write_loss_csv)
from .objective import RewardConfig
from .sampler import (SamplerConfig, read_keypoints_csv, sample_keypoints,
                      write_keypoints_csv)
from .synth import (SceneConfig, config_meta, generate_dataset, load_dataset,
                    pair_dirs, read_pgm, write_pgm)


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


def _sampler_keys(topk_default: int) -> dict[str, KeySpec]:
    return {
        "topk": KeySpec(_cast_int, topk_default, "keypoint budget per image"),
        "nms_window": KeySpec(_cast_int, 3, "odd suppression window side"),
        "use_kde": KeySpec(_cast_bool, True, "density balancing during training-mode sampling"),
        "kde_sigma_frac": KeySpec(_cast_float, 0.02, "density bandwidth, fraction of min side"),
        "subpixel": KeySpec(_cast_bool, False, "refine inference keypoints to subpixel"),
        "subpixel_temp": KeySpec(_cast_float, 0.5, "refinement softmax temperature"),
        "subpixel_window": KeySpec(_cast_int, 3, "odd refinement window side"),
    }


SYNTH_KEYS = {
    "out": KeySpec(_cast_str, REQUIRED, "dataset directory to create"),
    "num_pairs": KeySpec(_cast_int, 100, "pairs to generate (0 = just the meta)"),
    "seed": KeySpec(_cast_int, 0, "stream seed; pair i draws from (seed, i)"),
    "threads": KeySpec(_cast_int, 1, "accepted for uniformity; generation is sequential"),
    **_SCENE_KEYS,
}

TRAIN_KEYS = {
    "data": KeySpec(_cast_str, REQUIRED, "dataset directory from synth"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for weights/loss/meta"),
    "seed": KeySpec(_cast_int, 0, "weight initialization seed"),
    "threads": KeySpec(_cast_int, 1, "per-pair gradient workers; >1 batches updates"),
    "epochs": KeySpec(_cast_int, 1, "sweeps over the dataset"),
    **{k: v for k, v in _sampler_keys(10).items() if not k.startswith("subpixel")},
    "tau_r": KeySpec(_cast_float, 1.0, "reward radius in pixels"),
    "reward_eps": KeySpec(_cast_float, 0.01, "reward normalization epsilon"),
    "linear_decay": KeySpec(_cast_bool, False, "ramp reward down linearly inside the radius"),
    "reg_sigma_frac": KeySpec(_cast_float, 0.02, "coverage blur width, fraction of min side"),
    "reg_weight": KeySpec(_cast_float, 1.0, "coverage regularizer weight (0 disables)"),
    "match_threshold": KeySpec(_cast_float, math.inf, "mutual-match distance cutoff in pixels"),
    "assign_radius": KeySpec(_cast_float, 4.0, "toy identity assignment radius in pixels"),
    **_OPT_KEYS,
    **_ARCH_KEYS,
}

DISTILL_KEYS = {
    "light": KeySpec(_cast_str, REQUIRED, "light-biased teacher weights file"),
    "dark": KeySpec(_cast_str, REQUIRED, "dark-biased teacher weights file"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for student/loss/meta"),
    "seed": KeySpec(_cast_int, 0, "student init and data stream seed"),
    "threads": KeySpec(_cast_int, 1, "accepted for uniformity; distillation is sequential"),
    "r": KeySpec(_choice("1", "2", "inf"), "inf", "merge exponent for the teacher blend"),
    "num_pairs": KeySpec(_cast_int, 400, "generated pairs (two steps each)"),
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
    "threads": KeySpec(_cast_int, 1, "per-pair workers in --data mode"),
    **_sampler_keys(512),
    "dump_scoremap": KeySpec(_cast_str, None, "also write the raw scoremap grid here (--image only)"),
    "overlay": KeySpec(_cast_str, None, "also write a keypoint-overlay PGM here (--image only)"),
}

EVAL_KEYS = {
    "data": KeySpec(_cast_str, REQUIRED, "dataset directory from synth"),
    "out": KeySpec(_cast_str, REQUIRED, "output directory for report.txt/per_pair.csv/meta"),
    "detections": KeySpec(_cast_str, None, "directory of per-pair a.csv/b.csv keypoints"),
    "weights": KeySpec(_cast_str, None, "detector weights to run instead of stored detections"),
    "seed": KeySpec(_cast_int, 0, "robust-fit sampling seed"),
    "threads": KeySpec(_cast_int, 1, "per-pair detection workers (with --weights)"),
    "mode": KeySpec(_choice("train", "inference"), "inference", "sampling mode (with --weights)"),
    **_sampler_keys(512),
    "match_threshold": KeySpec(_cast_float, 2.0, "repeatability match radius in pixels"),
    "ransac_threshold": KeySpec(_cast_float, 2.0, "robust-fit inlier radius in pixels"),
    "ransac_iterations": KeySpec(_cast_int, 200, "robust-fit minimal samples"),
    "auc_threshold": KeySpec(_cast_float, 3.0, "corner-error curve cutoff in pixels"),
    "recall_radius": KeySpec(_cast_float, 2.0, "ground-truth recall radius in pixels"),
    "hit_radius": KeySpec(_cast_float, 4.0, "toy identity hit radius in pixels"),
}

GRADCHECK_KEYS = {
    "instances": KeySpec(_cast_int, 50, "randomized instances to check"),
    "seed": KeySpec(_cast_int, 0, "suite seed"),
    "step": KeySpec(_cast_float, 1e-4, "central-difference step"),
    "tolerance": KeySpec(_cast_float, 1e-3, "max relative error allowed"),
    "out": KeySpec(_cast_str, None, "optional report file"),
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = _read_text(path)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from None
    except InvalidInputError as e:
        raise ConfigError(str(e)) from None
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        raw[k.strip()] = v.strip()
    return raw


def resolve_config(table: dict[str, KeySpec], args: argparse.Namespace) -> dict:
    """Merge config file and flags into a validated key -> value map."""
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(_read_config_file(args.config))
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
    base = SceneConfig.toy() if cfg["mode"] == "toy" else SceneConfig.scenes()
    kw = {}
    for key in ("size", "num_light", "num_dark", "shape_palette", "background_gray",
                "rotation_aug", "negation_aug", "min_separation", "margin", "noise_sigma"):
        if cfg[key] is not None:
            kw[key] = cfg[key]
    m = base.homography_magnitude
    hm_kw = {}
    if cfg["hm_perspective_jitter"] is not None:
        hm_kw["perspective_jitter"] = cfg["hm_perspective_jitter"]
    if cfg["hm_max_translation"] is not None:
        hm_kw["max_translation"] = cfg["hm_max_translation"]
    if cfg["hm_scale_lo"] is not None or cfg["hm_scale_hi"] is not None:
        lo = cfg["hm_scale_lo"] if cfg["hm_scale_lo"] is not None else m.scale_range[0]
        hi = cfg["hm_scale_hi"] if cfg["hm_scale_hi"] is not None else m.scale_range[1]
        hm_kw["scale_range"] = (lo, hi)
    if cfg["hm_max_rotation_deg"] is not None:
        hm_kw["max_rotation_deg"] = cfg["hm_max_rotation_deg"]
    if hm_kw:
        kw["homography_magnitude"] = replace(m, **hm_kw)
    return replace(base, **kw)


def _build_opt(cfg: dict) -> AdamW:
    return AdamW(lr=cfg["lr"], beta1=cfg["beta1"], beta2=cfg["beta2"], eps=cfg["eps_opt"],
                 weight_decay=cfg["weight_decay"])


def _build_sampler_config(cfg: dict) -> SamplerConfig:
    return SamplerConfig(
        k=cfg["topk"], nms_window=cfg["nms_window"], use_kde=cfg["use_kde"],
        kde_sigma_frac=cfg["kde_sigma_frac"], subpixel=cfg["subpixel"],
        subpixel_temp=cfg["subpixel_temp"], subpixel_window=cfg["subpixel_window"],
    )


def _echo_meta(path, command: str, cfg: dict, extra: dict | None = None) -> None:
    """Provenance record: every effective value, plus derived facts."""
    entries: dict[str, object] = {"command": command}
    for k in sorted(cfg):
        v = cfg[k]
        if v is None:
            continue
        if isinstance(v, bool):
            v = int(v)
        elif isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        entries[k] = v
    if extra:
        entries.update(extra)
    lines = [f"{k}={v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _overlay_image(image, kps) -> np.ndarray:
    """Plus-shaped contrast markers at the rounded keypoint positions."""
    img = np.array(image, dtype=np.float64)
    h, w = img.shape
    for x, y in kps.xy.tolist():
        x, y = int(round(x)), int(round(y))
        ink = 1.0 if img[y, x] < 0.5 else 0.0
        for dy, dx in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < h and 0 <= xx < w:
                img[yy, xx] = ink
    return img


def _detect_pair(params, scfg: SamplerConfig, mode: str, images) -> tuple:
    """Keypoints of each image of a pair, in order."""
    return tuple(sample_keypoints(forward(params, img)[0], scfg, mode) for img in images)


def _check_threads(cfg: dict) -> None:
    if cfg["threads"] < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {cfg['threads']}")


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = resolve_config(SYNTH_KEYS, args)
    scene = _build_scene_config(cfg)
    kind = "toy" if cfg["mode"] == "toy" else "scene"
    paths = generate_dataset(cfg["out"], scene, cfg["num_pairs"], cfg["seed"], kind)
    _echo_meta(Path(cfg["out"]) / "meta.txt", "synth", cfg,
               extra={"kind": kind, "count": cfg["num_pairs"], **config_meta(scene)})
    print(f"generated {len(paths)} {kind} pair(s) under {cfg['out']}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(TRAIN_KEYS, args)
    pairs = load_dataset(cfg["data"])
    arch = ArchConfig(cfg["widths"], cfg["kernel_size"], seed=cfg["seed"])
    sampler = SamplerConfig(k=cfg["topk"], nms_window=cfg["nms_window"],
                            use_kde=cfg["use_kde"], kde_sigma_frac=cfg["kde_sigma_frac"])
    reward = RewardConfig(tau_r=cfg["tau_r"], eps=cfg["reward_eps"],
                          linear_decay=cfg["linear_decay"])
    tc = TrainConfig(
        arch=arch, sampler=sampler, reward=reward,
        reg_sigma_frac=cfg["reg_sigma_frac"], reg_weight=cfg["reg_weight"],
        match_threshold=cfg["match_threshold"], assign_radius=cfg["assign_radius"],
        opt=_build_opt(cfg), epochs=cfg["epochs"], threads=cfg["threads"],
    )
    params, reports = train_loop(pairs, tc)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    save_weights(outd / "weights.dadw", params)
    write_loss_csv(outd / "loss.csv", reports)
    _echo_meta(outd / "meta.txt", "train", cfg,
               extra={"num_pairs": len(pairs), "steps": len(reports)})
    tail = reports[-min(100, len(reports)):]
    mean_reward = sum(r.mean_raw_reward for r in tail) / len(tail)
    print(f"trained {len(reports)} step(s) on {len(pairs)} pair(s); "
          f"tail mean reward {mean_reward:.3f}; weights -> {outd / 'weights.dadw'}")
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    cfg = resolve_config(DISTILL_KEYS, args)
    light = load_weights(cfg["light"])
    dark = load_weights(cfg["dark"])
    dc = DistillConfig(
        scene=_build_scene_config(cfg), r=float(cfg["r"]),
        arch=ArchConfig(cfg["widths"], cfg["kernel_size"], seed=cfg["seed"]),
        kind="toy" if cfg["mode"] == "toy" else "scene",
        num_pairs=cfg["num_pairs"], seed=cfg["seed"], opt=_build_opt(cfg),
    )
    student, losses = train_distilled(light, dark, dc)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    save_weights(outd / "student.dadw", student)
    lines = ["step,loss"] + [f"{i},{v:.9g}" for i, v in enumerate(losses)]
    (outd / "loss.csv").write_text("\n".join(lines) + "\n")
    _echo_meta(outd / "meta.txt", "distill", cfg, extra={"steps": len(losses)})
    print(f"distilled student over {cfg['num_pairs']} pair(s); "
          f"final loss {losses[-1]:.6g}; weights -> {outd / 'student.dadw'}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = resolve_config(DETECT_KEYS, args)
    _check_threads(cfg)
    if (cfg["image"] is None) == (cfg["data"] is None):
        raise ConfigError("exactly one of keys 'image' and 'data' is required")
    params = load_weights(cfg["weights"])
    scfg = _build_sampler_config(cfg)

    if cfg["image"] is not None:
        img = read_pgm(cfg["image"])
        smap, _ = forward(params, img)
        kps = sample_keypoints(smap, scfg, cfg["mode"])
        out = Path(cfg["out"])
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        write_keypoints_csv(out, kps)
        if cfg["dump_scoremap"] is not None:
            write_dadf(cfg["dump_scoremap"], smap.logits)
        if cfg["overlay"] is not None:
            write_pgm(cfg["overlay"], _overlay_image(img, kps))
        print(f"{len(kps)} keypoint(s) -> {out}")
        return 0

    if cfg["dump_scoremap"] is not None or cfg["overlay"] is not None:
        raise ConfigError("keys 'dump_scoremap' and 'overlay' require key 'image'")
    dirs = pair_dirs(cfg["data"])
    if not dirs:
        raise ConfigError(f"key 'data': no pair_* directories under {cfg['data']}")
    detect = partial(_detect_pair, params, scfg, cfg["mode"])
    results = _ordered_map(lambda d: detect((read_pgm(d / "a.pgm"), read_pgm(d / "b.pgm"))),
                           dirs, cfg["threads"])
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    total = 0
    for d, res in zip(dirs, results):
        pd = outd / d.name
        pd.mkdir(parents=True, exist_ok=True)
        for name, kps in zip(("a", "b"), res):
            write_keypoints_csv(pd / f"{name}.csv", kps)
            total += len(kps)
    _echo_meta(outd / "meta.txt", "detect", cfg, extra={"num_pairs": len(dirs)})
    print(f"{total} keypoint(s) across {len(dirs)} pair(s) -> {outd}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(EVAL_KEYS, args)
    _check_threads(cfg)
    if (cfg["detections"] is None) == (cfg["weights"] is None):
        raise ConfigError("exactly one of keys 'detections' and 'weights' is required")
    pairs = load_dataset(cfg["data"])
    names = [d.name for d in pair_dirs(cfg["data"])]

    if cfg["detections"] is not None:
        det_root = Path(cfg["detections"])
        detections = []
        for name, pair in zip(names, pairs):
            ka = read_keypoints_csv(det_root / name / "a.csv", pair.image_a.shape)
            kb = read_keypoints_csv(det_root / name / "b.csv", pair.image_b.shape)
            detections.append((ka, kb))
    else:
        detect = partial(_detect_pair, load_weights(cfg["weights"]),
                         _build_sampler_config(cfg), cfg["mode"])
        detections = _ordered_map(lambda p: detect((p.image_a, p.image_b)),
                                  pairs, cfg["threads"])

    ecfg = EvalConfig(
        match_threshold=cfg["match_threshold"], ransac_threshold=cfg["ransac_threshold"],
        ransac_iterations=cfg["ransac_iterations"], auc_threshold=cfg["auc_threshold"],
        recall_radius=cfg["recall_radius"], hit_radius=cfg["hit_radius"], seed=cfg["seed"],
    )
    summary, rows = evaluate_detections(pairs, detections, ecfg)
    outd = Path(cfg["out"])
    outd.mkdir(parents=True, exist_ok=True)
    write_report(outd / "report.txt", outd / "per_pair.csv", summary, rows)
    _echo_meta(outd / "meta.txt", "eval", cfg, extra={"num_pairs": len(pairs)})
    for k in sorted(summary):
        print(f"{k}={summary[k]:.9g}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = resolve_config(GRADCHECK_KEYS, args)
    res = run_gradcheck(instances=cfg["instances"], seed=cfg["seed"],
                        step=cfg["step"], tolerance=cfg["tolerance"])
    for fam in FAMILIES:
        print(f"{fam}: max rel error {res.family_errors[fam]:.3e}, "
              f"normwise margin {res.family_margins[fam]:.3e}")
    print(f"smallest gradient scale {res.min_grad_scale:.3e}; "
          f"{res.zero_grad_redraws} zero-gradient instance(s) redrawn")
    print(f"overall: {res.max_rel_error:.3e} over {res.instances} instance(s), "
          f"tolerance {res.tolerance:g}: {'PASS' if res.passed else 'FAIL'}")
    if cfg["out"] is not None:
        lines = [f"{fam}={res.family_errors[fam]:.9g}" for fam in FAMILIES]
        lines += [f"{fam}_margin={res.family_margins[fam]:.9g}" for fam in FAMILIES]
        lines += [f"max={res.max_rel_error:.9g}", f"instances={res.instances}",
                  f"min_grad_scale={res.min_grad_scale:.9g}",
                  f"zero_grad_redraws={res.zero_grad_redraws}",
                  f"tolerance={res.tolerance:.9g}", f"passed={int(res.passed)}"]
        Path(cfg["out"]).write_text("\n".join(lines) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dadkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (table, func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key=value file; flags override its entries")
        for key, ks in table.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           metavar="V", help=ks.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
