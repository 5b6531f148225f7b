"""End-to-end command checks: artifacts, exit codes, config precedence."""

import contextlib
import hashlib
import io
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit import cli
from dadkit.cli import (DISTILL_KEYS, SYNTH_KEYS, _build_scene_config, build_parser, main,
                        resolve_config)
from dadkit.distill import DistillConfig
from dadkit.errors import ConfigError
from dadkit.evaluate import EvalConfig
from dadkit.model import AdamW, TrainConfig, forward
from dadkit.sampler import SamplerConfig
from dadkit.formats import read_meta
from dadkit.synth import SceneConfig


def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


TOY_FLAGS = ["--num-pairs", "2", "--seed", "3", "--size", "32",
             "--num-light", "2", "--num-dark", "2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert main(["synth", "--out", str(data)] + TOY_FLAGS) == 0
    run = root / "run"
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--widths", "4", "--kernel-size", "3", "--topk", "4"]) == 0
    return {"root": root, "data": data, "run": run,
            "weights": run / "weights.dadw"}


def test_synth_writes_dataset_and_meta(workspace):
    data = workspace["data"]
    assert sorted(p.name for p in data.iterdir() if p.is_dir()) == \
        ["pair_000000", "pair_000001"]
    meta = read_meta(data / "meta.txt")
    assert meta["command"] == "synth"
    assert meta["num_pairs"] == "2" and meta["size"] == "32"
    assert meta["mode"] == "toy"


def test_synth_reruns_are_byte_identical(workspace, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["synth", "--out", str(d1)] + TOY_FLAGS) == 0
    first = digest_tree(d1)
    assert main(["synth", "--out", str(d1)] + TOY_FLAGS) == 0
    assert digest_tree(d1) == first
    # a different --out changes only the echoed out= line in meta.txt
    assert main(["synth", "--out", str(d2)] + TOY_FLAGS) == 0
    second = digest_tree(d2)
    assert {k: v for k, v in first.items() if k != "meta.txt"} == \
        {k: v for k, v in second.items() if k != "meta.txt"}


def test_synth_zero_pairs_is_a_valid_empty_dataset(tmp_path):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--num-pairs", "0"]) == 0
    assert (out / "meta.txt").exists()
    assert not [p for p in out.iterdir() if p.is_dir()]


def test_synth_refuses_a_directory_holding_more_pairs(tmp_path, capsys):
    out = tmp_path / "d"
    small = ["--size", "32", "--num-light", "2", "--num-dark", "2"]
    assert main(["synth", "--out", str(out), "--num-pairs", "4", "--seed", "1", *small]) == 0
    before = digest_tree(out)
    capsys.readouterr()
    # eval would score all four pairs under a meta.txt that says two
    assert main(["synth", "--out", str(out), "--num-pairs", "2", "--seed", "2", *small]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"dadkit: {out / 'pair_000002'}: not one of the 2 pair(s) to write; "
        "write into an empty directory"]
    assert digest_tree(out) == before  # nothing written, nothing deleted
    assert main(["synth", "--out", str(out), "--num-pairs", "5", "--seed", "1", *small]) == 0
    assert {k: v for k, v in digest_tree(out).items() if k in before and k != "meta.txt"} == \
        {k: v for k, v in before.items() if k != "meta.txt"}


@pytest.mark.parametrize("frac", ["1e-320", "1"])
def test_blur_width_fractions_run_from_subnormal_to_one(workspace, tmp_path, frac):
    # a subnormal width blurs with the delta kernel; 1 is the largest width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "out"),
                     "--widths", "4", "--kernel-size", "3", "--topk", "4",
                     "--kde-sigma-frac", frac, "--reg-sigma-frac", frac]) == 0


@pytest.mark.parametrize("temp", ["1e-320", "1e-300", "0.25"])
def test_subpixel_temperatures_run_down_to_subnormal(workspace, tmp_path, temp):
    # below about 1e-308 times the largest logit, logits / temp overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--data", str(workspace["data"]),
                     "--weights", str(workspace["weights"]), "--out", str(tmp_path / "out"),
                     "--topk", "4", "--subpixel", "1", "--subpixel-temp", temp]) == 0


def test_unknown_flag_exits_1_naming_it(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--bogus", "1"])
    assert rc == 1
    assert "--bogus" in capsys.readouterr().err


def test_unknown_config_key_exits_1_naming_it(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("bogus_key=3\n")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "bogus_key" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("num_pairs=5\nsize=32\nnum_light=2\nnum_dark=2\n")
    out = tmp_path / "d"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--num-pairs", "1"]) == 0
    assert [p.name for p in sorted(out.iterdir()) if p.is_dir()] == ["pair_000000"]
    meta = read_meta(out / "meta.txt")
    assert meta["num_pairs"] == "1"  # flag wins
    assert meta["size"] == "32"  # file still applies


def test_missing_required_key_exits_1(capsys):
    assert main(["synth", "--num-pairs", "1"]) == 1
    assert "out" in capsys.readouterr().err


def test_bad_value_exits_1(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--num-pairs", "abc"])
    assert rc == 1
    assert "num_pairs" in capsys.readouterr().err


def test_invalid_parameter_exits_1(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--size", "8"]) == 1


def test_train_artifacts_and_determinism(workspace, tmp_path):
    run = workspace["run"]
    for name in ("weights.dadw", "loss.csv", "meta.txt"):
        assert (run / name).exists()
    meta = read_meta(run / "meta.txt")
    assert meta["command"] == "train" and meta["widths"] == "4"
    again = tmp_path / "run2"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(again),
                 "--widths", "4", "--kernel-size", "3", "--topk", "4"]) == 0
    assert (again / "weights.dadw").read_bytes() == workspace["weights"].read_bytes()
    assert (again / "loss.csv").read_text() == (run / "loss.csv").read_text()


def test_train_missing_dataset_exits_2(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 2


def test_detect_single_image(workspace, tmp_path):
    img = workspace["data"] / "pair_000000" / "a.pgm"
    out = tmp_path / "kps.csv"
    smap = tmp_path / "scores.dadf"
    over = tmp_path / "overlay.pgm"
    assert main(["detect", "--weights", str(workspace["weights"]),
                 "--image", str(img), "--out", str(out), "--topk", "3",
                 "--dump-scoremap", str(smap), "--overlay", str(over)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,score"
    assert 1 <= len(lines) - 1 <= 3
    assert smap.exists() and over.exists()
    again = tmp_path / "kps2.csv"
    assert main(["detect", "--weights", str(workspace["weights"]),
                 "--image", str(img), "--out", str(again), "--topk", "3"]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_detect_batch_over_dataset(workspace, tmp_path):
    out = tmp_path / "dets"
    assert main(["detect", "--weights", str(workspace["weights"]),
                 "--data", str(workspace["data"]), "--out", str(out),
                 "--topk", "4", "--threads", "2"]) == 0
    for pair in ("pair_000000", "pair_000001"):
        for side in ("a", "b"):
            assert (out / pair / f"{side}.csv").exists()
    assert read_meta(out / "meta.txt")["mode"] == "inference"


def test_detect_input_selection_errors(workspace, tmp_path, capsys):
    img = workspace["data"] / "pair_000000" / "a.pgm"
    base = ["detect", "--weights", str(workspace["weights"]), "--out", str(tmp_path / "x")]
    assert main(base) == 1  # neither image nor data
    assert main(base + ["--image", str(img), "--data", str(workspace["data"])]) == 1
    rc = main(base + ["--data", str(workspace["data"]),
                      "--overlay", str(tmp_path / "o.pgm")])
    assert rc == 1
    assert "image" in capsys.readouterr().err
    assert main(["detect", "--weights", str(tmp_path / "missing.dadw"),
                 "--image", str(img), "--out", str(tmp_path / "y.csv")]) == 2


def test_eval_on_ground_truth_detections(tmp_path):
    data = tmp_path / "scenes"
    assert main(["synth", "--out", str(data), "--mode", "scenes",
                 "--num-pairs", "3", "--seed", "1"]) == 0
    dets = tmp_path / "dets"
    for pair_dir in sorted(data.glob("pair_*")):
        d = dets / pair_dir.name
        d.mkdir(parents=True)
        (d / "a.csv").write_bytes((pair_dir / "gt_a.csv").read_bytes())
        (d / "b.csv").write_bytes((pair_dir / "gt_b.csv").read_bytes())
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(data), "--detections", str(dets),
                 "--out", str(out)]) == 0
    report = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    assert float(report["mean_repeatability"]) == 1.0
    assert float(report["auc_epe"]) > 0.9
    assert (out / "per_pair.csv").exists()


def test_eval_with_weights(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(workspace["data"]),
                 "--weights", str(workspace["weights"]), "--topk", "4",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "toy_mean_hits=" in report


def test_eval_source_selection_errors(workspace, tmp_path):
    base = ["eval", "--data", str(workspace["data"]), "--out", str(tmp_path / "x")]
    assert main(base) == 1
    assert main(base + ["--detections", str(tmp_path),
                        "--weights", str(workspace["weights"])]) == 1


@pytest.mark.parametrize("mode", ["toy", "scenes"])
def test_eval_on_one_polarity_data_has_no_warning(workspace, tmp_path, mode):
    # no pair holds a light point, so every light recall is NaN and the summary omits it
    data, out = tmp_path / "data", tmp_path / "eval"
    assert main(["synth", "--out", str(data), "--mode", mode, "--num-pairs", "2",
                 "--num-light", "0", "--num-dark", "3", "--size", "32"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--data", str(data), "--weights", str(workspace["weights"]),
                     "--topk", "4", "--out", str(out)]) == 0
    report = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    assert "recall_light" not in report and 0.0 <= float(report["recall_dark"]) <= 1.0
    csv = (out / "per_pair.csv").read_text().splitlines()
    light = csv[0].split(",").index("recall_light")
    assert [row.split(",")[light] for row in csv[1:]] == ["nan", "nan"]


def test_eval_rejects_an_infinite_auc_threshold_before_reading_data(tmp_path, capsys):
    assert main(["eval", "--data", str(tmp_path / "nonexistent"), "--detections", str(tmp_path),
                 "--out", str(tmp_path / "x"), "--auc-threshold", "inf"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dadkit: ") and "auc_threshold" in err[0]


# A dataset file replaced by a corrupt one, for the cases that load a dataset.
_CORRUPT_DATASET_FILES = {
    "gt_non_numeric": ("gt_b.csv", b"x,y,score,polarity\n1,zz,1,light\n"),
    "h_non_numeric": ("h.txt", b"1 0 0\n0 x 0\n0 0 1\n"),
    "meta_seed_non_integer": ("meta.txt", b"kind=toy\nseed=3.5\n"),
    "meta_not_utf8": ("meta.txt", b"kind=toy\nseed=\xff\n"),
    "meta_bad_kind": ("meta.txt", b"kind=foo\nseed=3\n"),
    "meta_kind_line_damaged": ("meta.txt", b"kind toy\nseed=0\n"),
    "meta_without_kind": ("meta.txt", b"seed=3\n"),
    "h_nan": ("h.txt", b"nan 0 0\n0 1 0\n0 0 1\n"),
    "h_singular": ("h.txt", b"0 0 0\n0 0 0\n0 0 1\n"),
    "gt_bad_polarity": ("gt_a.csv", b"x,y,score,polarity\n1,1,1,purple\n"),
}


# A detection CSV replaced by a corrupt one, for `eval --detections`.
_CORRUPT_DETECTIONS = {
    "csv_non_numeric": b"x,y,score\n1.0,two,0.5\n",
    "csv_outside_image": b"x,y,score\n99.0,2.0,0.5\n",
    "csv_scores_out_of_order": b"x,y,score\n1.0,2.0,0.5\n3.0,4.0,0.9\n",
    "csv_not_utf8": b"x,y,score\n1.0,2.0,0.5\xff\n",
}


def _write_detections(root):
    for pair in ("pair_000000", "pair_000001"):
        (root / pair).mkdir(parents=True)
        for side in ("a", "b"):
            (root / pair / f"{side}.csv").write_text("x,y,score\n1.0,2.0,0.5\n")


# An infinite or huge bound would overflow numpy's sampler or make a NaN
# homography; a large one draws only candidates the covisibility test rejects,
# most of which the homography rule calls singular.  The last column is what
# the error line names.
_HUGE_HOMOGRAPHY_BOUNDS = {
    "hm_scale_hi_inf": ("--hm-scale-hi", "inf", "hm_scale_hi"),
    "hm_max_rotation_deg_inf": ("--hm-max-rotation-deg", "inf", "hm_max_rotation_deg"),
    "hm_max_translation_inf": ("--hm-max-translation", "inf", "hm_max_translation"),
    "hm_scale_hi_1e308": ("--hm-scale-hi", "1e308", "hm_scale_hi"),
    "hm_max_translation_1e3": ("--hm-max-translation", "1e3",
                               "no homography with >= 40% covisibility in 200 tries"),
}


# A setting that cannot run, or that the toy generator never reads: (argv, key).
_BAD_SETTINGS = {
    "train_lr_inf": (["train", "--lr", "inf"], "lr"),
    "train_weight_decay_inf": (["train", "--weight-decay", "inf"], "weight_decay"),
    "train_reg_weight_inf": (["train", "--reg-weight", "inf"], "reg_weight"),
    "synth_noise_sigma_inf": (["synth", "--mode", "scenes", "--noise-sigma", "inf"], "noise_sigma"),
    "toy_rotation_aug": (["synth", "--mode", "toy", "--rotation-aug", "1",
                          "--negation-aug", "rgb"], "rotation_aug"),
    "toy_negation_aug": (["synth", "--mode", "toy", "--negation-aug", "rgb"], "negation_aug"),
    "toy_shape_palette": (["synth", "--mode", "toy", "--shape-palette", "dot,blob"],
                          "shape_palette"),
    "toy_noise_sigma": (["synth", "--mode", "toy", "--noise-sigma", "0.01"], "noise_sigma"),
    "toy_hm_bounds": (["synth", "--mode", "toy", "--hm-max-translation", "0.5",
                       "--hm-max-rotation-deg", "90"], "hm_max_translation"),
    "distill_toy_hm_bound": (["distill", "--mode", "toy", "--hm-scale-lo", "0.5"],
                             "hm_scale_lo"),
    # negative values that argparse alone would read as options
    "hm_max_rotation_deg_spaced_minus_inf": (["synth", "--mode", "scenes",
                                              "--hm-max-rotation-deg", "-inf"],
                                             "hm_max_rotation_deg"),
    "hm_max_rotation_deg_spaced_minus_1e308": (["synth", "--mode", "scenes",
                                                "--hm-max-rotation-deg", "-1e308"],
                                               "hm_max_rotation_deg"),
    # each finite, but the decay factor 1 - lr * weight_decay is not
    "train_lr_weight_decay_1e200": (["train", "--lr", "1e200", "--weight-decay", "1e200"],
                                    "lr * weight_decay"),
    # renamed keys and split bounds name the key, not the library field
    "detect_topk_0": (["detect", "--topk", "0"], "topk must be >= 1, got 0"),
    "train_eps_opt_0": (["train", "--eps-opt", "0"], "eps_opt must be positive"),
    "train_reward_eps_0": (["train", "--reward-eps", "0"], "reward_eps must be positive"),
    "train_beta1_1": (["train", "--beta1", "1"], "beta1 must be in [0, 1)"),
    "distill_widths_0": (["distill", "--widths", "0"], "widths must hold at least one width"),
    # a blur wider than the image side; 1e12 would allocate petabytes
    "train_kde_sigma_frac_1e12": (["train", "--kde-sigma-frac", "1e12"],
                                  "kde_sigma_frac must be in (0, 1], got 1000000000000.0"),
    "train_kde_sigma_frac_1e308": (["train", "--kde-sigma-frac", "1e308"],
                                   "kde_sigma_frac must be in (0, 1], got 1e+308"),
    "train_reg_sigma_frac_1e308": (["train", "--reg-sigma-frac", "1e308"],
                                   "reg_sigma_frac must be in (0, 1], got 1e+308"),
    "detect_kde_sigma_frac_2": (["detect", "--kde-sigma-frac", "2"],
                                "kde_sigma_frac must be in (0, 1], got 2.0"),
    # numpy seeds only non-negative integers
    **{f"{command}_seed_negative": ([command, "--seed=-1"],
                                    "bad value for key 'seed': must be >= 0, got -1")
       for command in ("synth", "train", "distill", "eval", "gradcheck")},
}


def _bad_input_case(case, ws, tmp):
    """argv for one malformed input, and the file or key its error line names."""
    img = ws["data"] / "pair_000000" / "a.pgm"
    detect = ["detect", "--weights", str(ws["weights"]), "--out", str(tmp / "out")]
    bad = tmp / "bad"
    if case in _CORRUPT_DATASET_FILES:
        name, blob = _CORRUPT_DATASET_FILES[case]
        shutil.copytree(ws["data"], tmp / "data")
        _write_detections(tmp / "dets")
        bad = tmp / "data" / "pair_000001" / name
        bad.write_bytes(blob)
        return ["eval", "--data", str(tmp / "data"), "--detections", str(tmp / "dets"),
                "--out", str(tmp / "out")], bad
    if case == "toy_pair_without_dots":
        shutil.copytree(ws["data"], tmp / "data")
        bad = tmp / "data" / "pair_000001" / "gt_a.csv"
        for name in ("gt_a.csv", "gt_b.csv"):
            (bad.parent / name).write_bytes(b"x,y,score,polarity\n")
        return ["train", "--data", str(tmp / "data"), "--out", str(tmp / "out"),
                "--widths", "4", "--kernel-size", "3"], bad
    if case == "dadw_truncated":
        bad.write_bytes(ws["weights"].read_bytes()[:-6])
        return ["detect", "--weights", str(bad), "--image", str(img),
                "--out", str(tmp / "k.csv")], bad
    if case == "pgm_payload_truncated":
        bad.write_bytes(img.read_bytes()[:-1])
        return detect + ["--image", str(bad)], bad
    if case == "pgm_header_truncated":
        bad.write_bytes(b"P5\n32 ")
        return detect + ["--image", str(bad)], bad
    if case in _CORRUPT_DETECTIONS:
        _write_detections(bad)
        bad = bad / "pair_000001" / "b.csv"
        bad.write_bytes(_CORRUPT_DETECTIONS[case])
        return ["eval", "--data", str(ws["data"]), "--detections", str(tmp / "bad"),
                "--out", str(tmp / "out")], bad
    if case == "dadw_bias_length":  # a 4-channel layer with 3 biases, then the head
        bad.write_bytes(b"DADW" + struct.pack("<II", 1, 2)
                        + struct.pack("<IIII", 4, 1, 3, 3) + bytes(4 * 36)
                        + struct.pack("<I", 3) + bytes(4 * 3)
                        + struct.pack("<IIII", 1, 4, 1, 1) + bytes(4 * 4)
                        + struct.pack("<I", 1) + bytes(4))
        return ["detect", "--weights", str(bad), "--image", str(img),
                "--out", str(tmp / "k.csv")], bad
    if case == "config_not_utf8":
        bad.write_bytes(b"topk=3\n\xff\n")
        return detect + ["--image", str(img), "--config", str(bad)], bad
    if case == "config_is_directory":
        bad.mkdir()
        return detect + ["--image", str(img), "--config", str(bad)], bad
    if case in _HUGE_HOMOGRAPHY_BOUNDS:
        flag, value, key = _HUGE_HOMOGRAPHY_BOUNDS[case]
        return ["synth", "--mode", "scenes", "--num-pairs", "1", "--out", str(tmp / "out"),
                flag, value], key
    if case in _BAD_SETTINGS:
        argv, key = _BAD_SETTINGS[case]
        inputs = {"synth": ["--num-pairs", "1"],
                  "distill": ["--light", str(ws["weights"]), "--dark", str(ws["weights"]),
                              "--num-pairs", "1"],
                  "eval": ["--data", str(ws["data"]), "--weights", str(ws["weights"])],
                  "detect": ["--data", str(ws["data"]), "--weights", str(ws["weights"])],
                  "gradcheck": []}.get(
            argv[0], ["--data", str(ws["data"]), "--widths", "4", "--kernel-size", "3"])
        return [*argv, *inputs, "--out", str(tmp / "out")], key
    if case in ("dadw_non_finite", "dadw_signaling_nan"):
        blob = bytearray(ws["weights"].read_bytes())
        # the first kernel entry: inf, or a NaN whose float64 cast would warn
        blob[28:32] = (struct.pack("<f", float("inf")) if case == "dadw_non_finite"
                       else struct.pack("<I", 0x7F800001))
        bad.write_bytes(bytes(blob))
        return ["detect", "--weights", str(bad), "--image", str(img),
                "--out", str(tmp / "k.csv")], bad
    if case == "gt_disagrees_with_h":
        # a scene pair whose h.txt is shifted 3 px after its gt CSVs were written
        assert main(["synth", "--mode", "scenes", "--num-pairs", "1",
                     "--out", str(tmp / "data")]) == 0
        bad = tmp / "data" / "pair_000000"
        h = np.loadtxt(bad / "h.txt")
        h[0] += 3.0 * h[2]
        np.savetxt(bad / "h.txt", h, fmt="%.17g")
        _write_detections(tmp / "dets")
        return ["eval", "--data", str(tmp / "data"), "--detections", str(tmp / "dets"),
                "--out", str(tmp / "out")], bad
    if case in ("train_lr_1e200", "train_lr_1e200_steps"):
        # one step leaves parameters near 1e200, finite only as float64; a
        # second step's forward would overflow
        batch = "2" if case == "train_lr_1e200" else "1"
        return ["train", "--data", str(ws["data"]), "--out", str(tmp / "out"), "--widths", "4",
                "--kernel-size", "3", "--threads", batch, "--lr", "1e200"], \
            "training diverged at step 1:"
    if case in ("train_lr_1e4", "train_lr_1e4_names_step"):
        # huge logits with tied maxima: the log-sum-exp absorbs the log of
        # their count, so the masked mass misses 1 in step 2's loss
        return ["train", "--data", str(ws["data"]), "--out", str(tmp / "out"), "--widths", "4",
                "--kernel-size", "3", "--lr", "1e4"], \
            ("masked probabilities sum to" if case == "train_lr_1e4"
             else "training diverged at step 2: masked probabilities sum to")
    if case == "distill_lr_1e200":
        return ["distill", "--light", str(ws["weights"]), "--dark", str(ws["weights"]),
                "--out", str(tmp / "out"), "--num-pairs", "2", "--widths", "4",
                "--kernel-size", "3", "--lr", "1e200"], "distillation diverged at step 1:"
    if case == "detect_data_without_pairs":
        assert main(["synth", "--out", str(bad), "--num-pairs", "0"]) == 0
        return detect + ["--data", str(bad)], f"{bad}: no pair_* directories"
    if case == "synth_threads_0":
        return ["synth", "--out", str(tmp / "out"), "--num-pairs", "1", "--threads", "0"], "threads"
    if case == "distill_threads_0":
        return ["distill", "--light", str(ws["weights"]), "--dark", str(ws["weights"]),
                "--out", str(tmp / "out"), "--num-pairs", "1", "--threads", "0"], "threads"
    if case == "detect_threads_0":
        return detect + ["--data", str(ws["data"]), "--threads", "0"], "threads"
    assert case == "eval_threads_0"
    return ["eval", "--data", str(ws["data"]), "--weights", str(ws["weights"]),
            "--out", str(tmp / "out"), "--threads", "0"], "threads"


@pytest.mark.parametrize("case, code", [
    ("dadw_truncated", 2), ("pgm_payload_truncated", 2), ("pgm_header_truncated", 2),
    ("csv_non_numeric", 2), ("detect_threads_0", 1), ("eval_threads_0", 1),
    ("gt_non_numeric", 2), ("h_non_numeric", 2), ("meta_seed_non_integer", 2),
    ("csv_outside_image", 2), ("csv_scores_out_of_order", 2), ("csv_not_utf8", 2),
    ("meta_not_utf8", 2), ("config_not_utf8", 1), ("dadw_bias_length", 2),
    ("config_is_directory", 1), ("synth_threads_0", 1), ("distill_threads_0", 1),
    ("meta_bad_kind", 2), ("h_nan", 2), ("h_singular", 2), ("gt_bad_polarity", 2),
    ("meta_kind_line_damaged", 2), ("meta_without_kind", 2),
    ("toy_pair_without_dots", 2), ("hm_scale_hi_inf", 1), ("hm_max_rotation_deg_inf", 1),
    ("hm_max_translation_inf", 1), ("hm_scale_hi_1e308", 1), ("dadw_non_finite", 2),
    ("train_lr_1e200", 2), ("hm_max_translation_1e3", 2), ("train_lr_inf", 1),
    ("train_weight_decay_inf", 1), ("train_reg_weight_inf", 1), ("synth_noise_sigma_inf", 1),
    ("toy_rotation_aug", 1), ("toy_negation_aug", 1), ("toy_shape_palette", 1),
    ("toy_noise_sigma", 1), ("dadw_signaling_nan", 2), ("toy_hm_bounds", 1),
    ("distill_toy_hm_bound", 1), ("gt_disagrees_with_h", 2), ("train_lr_1e200_steps", 2),
    ("distill_lr_1e200", 2), ("hm_max_rotation_deg_spaced_minus_inf", 1),
    ("hm_max_rotation_deg_spaced_minus_1e308", 1), ("train_lr_weight_decay_1e200", 1),
    ("train_lr_1e4", 2), ("train_lr_1e4_names_step", 2), ("synth_seed_negative", 1),
    ("train_seed_negative", 1), ("distill_seed_negative", 1), ("eval_seed_negative", 1),
    ("gradcheck_seed_negative", 1), ("detect_topk_0", 1), ("train_eps_opt_0", 1),
    ("train_reward_eps_0", 1), ("train_beta1_1", 1), ("distill_widths_0", 1),
    ("detect_data_without_pairs", 2), ("train_kde_sigma_frac_1e12", 1),
    ("train_kde_sigma_frac_1e308", 1), ("train_reg_sigma_frac_1e308", 1),
    ("detect_kde_sigma_frac_2", 1),
])
def test_bad_input_exits_with_one_error_line(workspace, tmp_path, capsys, case, code):
    argv, bad = _bad_input_case(case, workspace, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is not a clean error line
        assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dadkit: ")
    assert str(bad) in err[0]


@pytest.mark.parametrize("command, key", [
    ("synth", "margin"), ("synth", "noise_sigma"), ("train", "reg_weight"),
])
def test_nan_value_exits_1_naming_the_key(workspace, tmp_path, capsys, command, key):
    argv = [command, "--out", str(tmp_path / "out"), "--" + key.replace("_", "-"), "nan"]
    if command == "synth":
        argv += ["--mode", "scenes", "--num-pairs", "1"]
    else:
        argv += ["--data", str(workspace["data"]), "--widths", "4", "--kernel-size", "3"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"bad value for key '{key}'" in err[0]


def test_optimizer_and_merge_keys_reach_the_trainers(workspace, tmp_path):
    small = ["--widths", "4", "--kernel-size", "3"]
    light = workspace["weights"]
    dark = tmp_path / "dark"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(dark),
                 "--seed", "1", "--topk", "4"] + small) == 0
    train = ["train", "--data", str(workspace["data"]), "--topk", "4"] + small
    distill = ["distill", "--light", str(light), "--dark", str(dark / "weights.dadw"),
               "--mode", "toy", "--size", "32", "--num-light", "2", "--num-dark", "2",
               "--num-pairs", "2"] + small
    opt_flags = [("--lr", "0.01"), ("--beta1", "0.5"), ("--beta2", "0.9"),
                 ("--eps-opt", "0.01"), ("--weight-decay", "0.5")]
    ignored = []
    for argv, weights, flags in ((train, "weights.dadw", opt_flags),
                                 (distill, "student.dadw", opt_flags + [("--r", "1")])):
        def run(*flag):
            out = tmp_path / f"{argv[0]}{''.join(flag)}"
            assert main(argv + ["--out", str(out), *flag]) == 0
            return (out / weights).read_bytes()

        default = run()
        ignored += [f"{argv[0]} {flag}" for flag in flags if run(*flag) == default]
    assert not ignored


def test_train_checks_its_config_before_loading_data(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nonexistent"), "--out", str(tmp_path / "x"),
                 "--lr", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "lr" in err[0]


def test_eval_checks_its_config_before_detecting(workspace, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("dadkit.cli.forward", lambda *args: calls.append(1) or forward(*args))
    assert main(["eval", "--data", str(workspace["data"]), "--weights", str(workspace["weights"]),
                 "--out", str(tmp_path / "x"), "--match-threshold", "0"]) == 1
    assert calls == []
    assert "match_threshold must be positive, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--eps-opt=0"], ["distill", "--eps-opt=0"]])
def test_eps_opt_error_names_the_key_on_every_command(workspace, tmp_path, capsys, argv):
    inputs = {"train": ["--data", str(workspace["data"])],
              "distill": ["--light", str(workspace["weights"]), "--dark", str(workspace["weights"])]}
    assert main([*argv, *inputs[argv[0]], "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "dadkit: invalid parameter: eps_opt must be positive, got 0.0\n"


def _build_parser_reference():
    """The parser before per-command flags, verbatim: every command gets its flags."""
    parser = cli._Parser(prog="dadkit", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=cli._Parser)
    for name, (table, func, help_text) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key=value file; flags override its entries")
        for key, ks in table.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           metavar="V", help=ks.help)
        p.set_defaults(func=func)
    return parser


def _parse_reference(argv):
    """main's exit code and output for an argv that never reaches a command."""
    try:
        _build_parser_reference().parse_args(cli._joined(argv))
    except ConfigError as e:
        print(f"dadkit: {e}", file=sys.stderr)
        return 1
    raise AssertionError(f"{argv} parsed")


def _cli_output(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:  # --help prints and exits
            code = f"exit {e.code}"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], *([command, "--help"] for command in cli._COMMANDS),
    ["eval", "--topk", "3", "-h"], [], ["bogus"], ["bogus", "--help"], ["-x", "synth"],
    ["--seed", "1", "synth"], ["synth", "--bogus", "1"], ["train", "--data", "d", "--bogus"],
    ["detect", "--topk"], ["synth", "extra"], ["eval", "--num-pairs", "2"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_help_and_parse_errors_print_the_all_flags_parser_text(argv):
    assert _cli_output(main, argv) == _cli_output(_parse_reference, argv)


class _Stop(Exception):
    """Raised by a stubbed library call to end a command once it has its config."""


@pytest.mark.parametrize("command, call, expected", [
    ("train", "train_loop", TrainConfig()),
    ("distill", "train_distilled", DistillConfig()),
    ("detect", "_detect_pair", SamplerConfig()),
    ("eval", "_detect_pair", SamplerConfig()),
    ("eval", "evaluate_detections", EvalConfig()),
], ids=["train", "distill", "detect", "eval-sampler", "eval"])
def test_commands_without_flags_build_the_library_defaults(workspace, tmp_path, monkeypatch,
                                                           command, call, expected):
    seen = []

    def stop(*args):
        seen.append(next(a for a in args if type(a) is type(expected)))
        raise _Stop

    monkeypatch.setattr(f"dadkit.cli.{call}", stop)
    data, weights = str(workspace["data"]), str(workspace["weights"])
    argv = {"train": ["--data", data], "distill": ["--light", weights, "--dark", weights],
            "detect": ["--weights", weights, "--data", data],
            "eval": ["--data", data, "--weights", weights]}[command]
    with pytest.raises(_Stop):
        main([command, *argv, "--out", str(tmp_path / "out")])
    assert seen == [expected]
    if command in ("train", "distill"):
        assert seen[0].opt == AdamW()


def test_gradcheck_command(tmp_path, capsys):
    out = tmp_path / "grad.txt"
    rc = main(["gradcheck", "--instances", "1", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured
    report = dict(l.split("=", 1) for l in out.read_text().splitlines())
    assert report["passed"] == "1"
    assert float(report["max"]) < 1e-3


def test_every_scene_config_field_is_a_synth_and_distill_key():
    names = {f.name for f in fields(SceneConfig)} - {"kind"}
    assert names - set(SYNTH_KEYS) == set() and names - set(DISTILL_KEYS) == set()


# bounds whose homographies keep the default scene's pairs covisible
_HM_VALID = {
    "hm_perspective_jitter": st.floats(0.0, 1e-3),
    "hm_max_translation": st.floats(0.0, 0.2),
    "hm_scale_lo": st.floats(0.8, 1.0),
    "hm_scale_hi": st.floats(1.0, 1.2),
    "hm_max_rotation_deg": st.floats(0.0, 30.0),
}


def _hm_flags(values: dict) -> list[str]:
    """`--key=value` flags; as a separate word, argparse would take "-inf" for an option."""
    return [f"--{k.replace('_', '-')}={v!r}" for k, v in values.items()]


@settings(deadline=None, max_examples=15)
@given(values=st.fixed_dictionaries(_HM_VALID))
def test_hm_flags_build_the_scene_config_and_meta_echoes_them(tmp_path_factory, values):
    out = tmp_path_factory.mktemp("hm")
    argv = ["synth", "--mode", "scenes", "--num-pairs", "1", "--out", str(out), *_hm_flags(values)]
    scene = _build_scene_config(resolve_config(SYNTH_KEYS, build_parser("synth").parse_args(argv)))
    assert {k: getattr(scene, k) for k in values} == values
    assert main(argv) == 0
    meta = read_meta(out / "pair_000000" / "meta.txt")
    assert {k: float(meta[k]) for k in values} == values


@settings(deadline=None, max_examples=30)
@given(key=st.sampled_from(sorted(_HM_VALID)),
       value=st.sampled_from([-0.5, -np.inf, np.inf]) | st.floats(1.0000001e6, 1e308))
def test_out_of_range_hm_flag_exits_1_naming_it(tmp_path_factory, key, value):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["synth", "--mode", "scenes", "--num-pairs", "1",
                     "--out", str(tmp_path_factory.mktemp("hm")), *_hm_flags({key: value})]) == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"dadkit: invalid parameter: {key} ")


def test_distill_command(workspace, tmp_path):
    light = workspace["weights"]
    out = tmp_path / "student"
    assert main(["distill", "--light", str(light), "--dark", str(light),
                 "--out", str(out), "--mode", "toy", "--size", "32",
                 "--num-light", "2", "--num-dark", "2", "--num-pairs", "1",
                 "--widths", "4", "--kernel-size", "3"]) == 0
    assert (out / "student.dadw").exists()
    loss_lines = (out / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "step,loss"
    assert len(loss_lines) == 3  # one pair contributes two images
    assert read_meta(out / "meta.txt")["r"] == "inf"


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from pathlib import Path
import dadkit.cli
loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
assert loaded == ["scipy"], loaded  # only the blocking entry
from dadkit.distill import make_bump
make_bump((9, 9), 4.0, 4.0, 3.0)
root = Path(sys.argv[1])
data, run, dets = root / "data", root / "run", root / "dets"
for argv in (["synth", "--out", str(data), *sys.argv[2:]],
             ["train", "--data", str(data), "--out", str(run), "--widths", "4",
              "--kernel-size", "3", "--topk", "4"],
             ["detect", "--weights", str(run / "weights.dadw"), "--data", str(data),
              "--out", str(dets), "--topk", "4"],
             ["eval", "--data", str(data), "--detections", str(dets),
              "--out", str(root / "eval")]):
    assert dadkit.cli.main(argv) == 0, argv
"""


def test_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: import, a toy pipeline and the
    plateau rule behind KeypointFunction all run with scipy unimportable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY,
                           str(tmp_path), *TOY_FLAGS],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "report.txt").exists()
