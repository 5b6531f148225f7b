#!/usr/bin/env python3
"""sha256 of every artifact of a fixed CLI pipeline, to compare two checkouts.

    python3 tools/artifact_digests.py OUT

runs every dadkit command in-process (`dadkit.cli.main([...])`) on small
seeded inputs inside the new directory OUT, then prints a `#` comment line
naming what else the bits depend on (the numpy version, the BLAS and its
version, the CPUs this process may use and OPENBLAS_NUM_THREADS), one
`<sha256>  <path>` line per file written, in path order, and a last line
`combined <sha256>` over the file lines only.  The program is imported from the
`src/` next to this script.  Every path handed to the CLI is relative to
OUT, so the `meta.txt` files, which echo them, do not depend on where OUT
is.  Run the same script against two checkouts (copy it into the other
one's `tools/`) and compare the output to check that a change rewrites
every artifact byte for byte.

The pipeline: toy `synth` from a config file, scene `synth`, scene `synth`
with rotation and negation augmentation, scene `synth` with every `hm_*`
homography bound off its default, scene `synth` with dark structures only,
scene `synth` with every shape, 6 px separation, strong texture, rotation and
negation, `train` on the first two, toy `train` with the linear-decay reward
and no regularizer, toy `train` in batches of 4 over 2 epochs (so each epoch
ends on a short batch of 2), `detect --image` (with scoremap dump, overlay and
subpixel refinement), `detect --data` in inference and in training mode,
`eval --detections` with default and with tight thresholds, `eval --weights`
on toy and scene pairs with and without `--subpixel 1`, on scene pairs in
training mode and with `--subpixel-temp 0.25`, on the dark-only scenes and on
the dense scenes, scene `distill` with r = 2 and r = 1, toy `distill`, and
`gradcheck --out`.
Exits 1 naming the first stage that fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

TOY_CONFIG = "# toy dots\nmode=toy\nnum_pairs=6\nseed=3\n"
LIGHT, DARK = "train_toy/weights.dadw", "train_scene/weights.dadw"
STAGES = [
    ["synth", "--config", "toy.cfg", "--out", "toy"],
    ["synth", "--mode", "scenes", "--num-pairs", "4", "--seed", "5", "--out", "scenes",
     "--hm-scale-lo", "0.95", "--noise-sigma", "0.02"],
    ["synth", "--mode", "scenes", "--rotation-aug", "1", "--negation-aug", "rgb",
     "--num-pairs", "4", "--seed", "8", "--out", "scenes_aug"],
    ["synth", "--mode", "scenes", "--num-pairs", "3", "--seed", "11", "--out", "scenes_hm",
     "--hm-perspective-jitter", "0.0005", "--hm-max-translation", "0.08", "--hm-scale-lo", "0.92",
     "--hm-scale-hi", "1.05", "--hm-max-rotation-deg", "20"],
    ["synth", "--mode", "scenes", "--num-light", "0", "--num-pairs", "3", "--seed", "13",
     "--out", "scenes_dark"],
    # the renderer's edges: every shape, disks that overlap, strong texture,
    # and image B rotated and negated
    ["synth", "--mode", "scenes", "--shape-palette", "dot,cross,blob,corner",
     "--min-separation", "6", "--noise-sigma", "0.05", "--rotation-aug", "1",
     "--negation-aug", "rgb", "--num-pairs", "3", "--seed", "17", "--out", "scenes_dense"],
    ["train", "--data", "toy", "--out", "train_toy", "--threads", "2", "--epochs", "2"],
    ["train", "--data", "toy", "--out", "train_toy_decay", "--linear-decay", "1",
     "--reg-weight", "0"],
    ["train", "--data", "toy", "--out", "train_toy_batch4", "--threads", "4", "--epochs", "2"],
    ["train", "--data", "scenes", "--out", "train_scene", "--lr", "0.003",
     "--reward-eps", "0.02"],
    ["detect", "--weights", LIGHT, "--image", "toy/pair_000000/a.pgm",
     "--out", "detect_image/a.csv", "--dump-scoremap", "detect_image/a.dadf",
     "--overlay", "detect_image/a_overlay.pgm", "--subpixel", "1"],
    ["detect", "--weights", DARK, "--data", "scenes", "--out", "detect_scenes"],
    ["detect", "--weights", DARK, "--data", "scenes", "--out", "detect_scenes_train",
     "--mode", "train"],
    ["eval", "--data", "scenes", "--detections", "detect_scenes", "--out", "eval_detections",
     "--ransac-iterations", "50"],
    # tight thresholds, so the distance and inlier comparisons decide near their cuts
    ["eval", "--data", "scenes", "--detections", "detect_scenes", "--out", "eval_thresholds",
     "--match-threshold", "0.5", "--ransac-threshold", "0.75", "--ransac-iterations", "7",
     "--recall-radius", "1"],
    *(["eval", "--data", data, "--weights", weights, "--out", f"eval_{data}{suffix}",
       "--topk", "12", *flags]
      for data, weights in (("toy", LIGHT), ("scenes", DARK))
      for suffix, flags in (("", []), ("_subpixel", ["--subpixel", "1"]))),
    ["eval", "--data", "scenes", "--weights", DARK, "--out", "eval_scenes_train", "--topk", "12",
     "--mode", "train"],
    ["eval", "--data", "scenes", "--weights", DARK, "--out", "eval_scenes_subpixel_temp",
     "--topk", "12", "--subpixel", "1", "--subpixel-temp", "0.25"],
    # one polarity: every light recall is NaN
    ["eval", "--data", "scenes_dark", "--weights", DARK, "--out", "eval_scenes_dark",
     "--topk", "12"],
    ["eval", "--data", "scenes_dense", "--weights", DARK, "--out", "eval_scenes_dense",
     "--topk", "12"],
    ["distill", "--light", LIGHT, "--dark", DARK, "--out", "distill", "--num-pairs", "4",
     "--r", "2"],
    ["distill", "--light", LIGHT, "--dark", DARK, "--out", "distill_r1", "--num-pairs", "2",
     "--r", "1"],
    ["distill", "--light", LIGHT, "--dark", DARK, "--mode", "toy", "--out", "distill_toy",
     "--num-pairs", "3"],
    ["gradcheck", "--instances", "2", "--out", "gradcheck.txt"],
]


def environment_line() -> str:
    """The settings besides the program that the float bits depend on: a BLAS
    product's bits change with its build and its thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"# numpy {np.__version__}, BLAS {blas.get('name', '?')} "
            f"{blas.get('version', '?')}, {cpus} usable CPUs, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dadkit.cli import main as dadkit_main

    os.chdir(out)
    Path("toy.cfg").write_text(TOY_CONFIG, encoding="utf-8")
    for stage in STAGES:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = dadkit_main(stage)
        if code != 0:
            print(f"stage failed with exit code {code}: dadkit {' '.join(stage)}\n"
                  f"{log.getvalue()}", file=sys.stderr, end="")
            return 1
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}"
             for p in sorted(Path(".").rglob("*")) if p.is_file()]
    listing = "".join(f"{line}\n" for line in lines)
    print(environment_line())
    print(listing, end="")
    print(f"combined {hashlib.sha256(listing.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
