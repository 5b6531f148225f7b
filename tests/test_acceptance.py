"""Whole-pipeline acceptance checks, one printed verdict line per property.

Each test exercises a headline guarantee of the package at full scale
(gradient exactness, emergence, distillation, sampler/merge theorems,
evaluation self-consistency, CLI determinism) and prints a single
[PASS]/[FAIL] line with the measured numbers before asserting.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from dadkit.cli import main
from dadkit.core import gaussian_blur, softmax_2d
from dadkit.distill import (
    DistillConfig,
    check_partner_merge,
    local_maxima,
    make_bump,
    train_distilled,
)
from dadkit.evaluate import EvalConfig, evaluate_detections, polarity_recall
from dadkit.gradcheck import MARGIN_GATE, run_gradcheck
from dadkit.model import ArchConfig, TrainConfig, forward, train_loop
from dadkit.objective import RewardConfig, raw_reward
from dadkit.sampler import SamplerConfig, kde_balance, nms, sample_keypoints
from dadkit.synth import (
    SceneConfig,
    classify_polarity,
    expected_strategy_reward,
    generate_pairs,
    toy_matches,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# gradients


def test_acceptance_analytic_gradients():
    t0 = time.time()
    res = run_gradcheck(instances=50, seed=0)
    dt = time.time() - t0
    # the floored error next to the normwise margin it hides
    fams = ", ".join(f"{k} {v:.2e} margin {res.family_margins[k]:.2e}"
                     for k, v in sorted(res.family_errors.items()))
    ok = res.passed and dt < 120
    _verdict(
        "analytic gradients",
        ok,
        f"50 instances, max rel err {res.max_rel_error:.2e} < 1e-3, every margin < "
        f"{MARGIN_GATE:g} ({fams}), {dt:.0f}s",
    )


# toy strategy rewards


def test_acceptance_toy_strategy_rewards():
    t0 = time.time()
    cfg = SceneConfig.toy()
    light = expected_strategy_reward("light-only", cfg)
    dark = expected_strategy_reward("dark-only", cfg)
    mixed = expected_strategy_reward("mixed-5-5", cfg)
    dt = time.time() - t0
    ok = light == 10.0 and dark == 10.0 and mixed == 5.0 and dt < 30
    _verdict(
        "toy strategy rewards",
        ok,
        f"light {light:.4g}, dark {dark:.4g} (exact 10), mixed {mixed:.4f} (exact 5), {dt:.0f}s",
    )


# pointwise-max merge theorems


def test_acceptance_pointwise_max_merge_theorems():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def draw_bump():
        r = rng.uniform(2.0, 5.0)
        c = rng.uniform(r + 1.5, 23 - r - 1.5, size=2)
        return make_bump((24, 24), c[0], c[1], r, height=rng.uniform(0.5, 2.0))

    partners = 0
    attempts = 0
    partner_violations = 0
    while partners < 1000:
        attempts += 1
        assert attempts < 30_000, "partner pairs should not be this rare"
        f, g = draw_bump(), draw_bump()
        # check_partner_merge itself raises on any theorem violation
        if check_partner_merge(f, g) != "partner":
            continue
        partners += 1
        merged = local_maxima(np.maximum(f.values, g.values))
        if merged != {f.mode, g.mode}:
            partner_violations += 1

    smooth_violations = 0
    for _ in range(1000):
        f = gaussian_blur(rng.normal(size=(20, 20)), rng.uniform(1.0, 2.5))
        g = gaussian_blur(rng.normal(size=(20, 20)), rng.uniform(1.0, 2.5))
        merged = local_maxima(np.maximum(f, g))
        if not merged <= (local_maxima(f) | local_maxima(g)):
            smooth_violations += 1
    dt = time.time() - t0
    ok = partner_violations == 0 and smooth_violations == 0 and dt < 60
    _verdict(
        "pointwise-max merge theorems",
        ok,
        f"1000 partner pairs ({attempts} draws): {partner_violations} violations; "
        f"1000 smooth pairs: {smooth_violations} extra maxima, {dt:.0f}s",
    )


# balanced top-K sampler


def test_acceptance_sampler_properties():
    t0 = time.time()
    rng = np.random.default_rng(0)
    sparsity_bad = 0
    priority_bad = 0
    checked = 0
    for i in range(500):
        h = int(rng.integers(12, 29))
        w = int(rng.integers(12, 29))
        z = rng.normal(size=(h, w)) * rng.uniform(0.5, 3.0)
        k = int(rng.integers(3, 12))
        for mode in ("train", "inference"):
            cfg = SamplerConfig(k=k)
            kps = sample_keypoints(z, cfg, mode)
            probs = softmax_2d(z)
            if mode == "train":
                grid = kde_balance(probs, cfg.kde_sigma_frac * min(h, w))
            else:
                grid = probs
            surv = nms(grid, cfg.nms_window)
            selected = set()
            for kx, ky in kps.xy:
                y, x = int(ky), int(kx)
                selected.add((y, x))
                # strict local max of the grid fed to NMS
                win = grid[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2]
                if not (grid[y, x] >= win).all() or (win > grid[y, x]).any():
                    sparsity_bad += 1
            sy, sx = np.nonzero(surv)
            n_surv = len(sy)
            if len(selected) != min(k, n_surv):
                priority_bad += 1
            sel_scores = [surv[p] for p in selected]
            unsel = [surv[y, x] for y, x in zip(sy, sx) if (y, x) not in selected]
            # a skipped survivor must never outrank a selected one
            if unsel and sel_scores and max(unsel) > min(sel_scores):
                priority_bad += 1
            checked += len(selected)

    # two clusters, budget 4: balancing must reach the isolated peak
    z = np.zeros((32, 32))
    for i in range(3):
        for j in range(3):
            z[8 + 3 * i, 8 + 3 * j] = 6.0
    z[26, 26] = 5.5
    on = sample_keypoints(z, SamplerConfig(k=4, use_kde=True, kde_sigma_frac=0.15), "train").xy
    off = sample_keypoints(z, SamplerConfig(k=4, use_kde=False), "train").xy
    iso_on = int(np.sum(np.hypot(on[:, 0] - 26, on[:, 1] - 26) < 3))
    iso_off = int(np.sum(np.hypot(off[:, 0] - 26, off[:, 1] - 26) < 3))
    cluster_on = len(on) - iso_on
    dt = time.time() - t0
    ok = (sparsity_bad == 0 and priority_bad == 0 and iso_on >= 1
          and cluster_on >= 1 and iso_off == 0 and dt < 60)
    _verdict(
        "balanced top-K sampler",
        ok,
        f"500 scoremaps x 2 modes, {checked} keypoints: {sparsity_bad} non-maxima, "
        f"{priority_bad} priority breaks; two-cluster coverage kde-on {iso_on}/{cluster_on}, "
        f"kde-off isolated {iso_off}, {dt:.0f}s",
    )


# evaluation self-check


def test_acceptance_evaluation_self_check():
    t0 = time.time()
    pairs = generate_pairs(SceneConfig.scenes(), 200, seed=77)
    dets = [(p.gt_keypoints_a, p.gt_keypoints_b) for p in pairs]
    summary, _ = evaluate_detections(pairs, dets, EvalConfig())
    dt = time.time() - t0
    rep = summary["mean_repeatability"]
    auc_epe = summary["auc_epe"]
    ok = rep == 1.0 and auc_epe >= 0.99 and dt < 120
    _verdict(
        "evaluation self-check",
        ok,
        f"200 pairs of exact correspondences: repeatability {rep:.4f} (need 1.0), "
        f"corner-EPE AUC@3px {auc_epe:.4f} >= 0.99, median EPE {summary['median_epe']:.2e}px, {dt:.0f}s",
    )


# subpixel refinement


def test_acceptance_subpixel_refinement():
    t0 = time.time()
    rng = np.random.default_rng(0)
    err_int = []
    err_sub = []
    coarse = SamplerConfig(k=1, use_kde=False, subpixel=False)
    fine = SamplerConfig(k=1, use_kde=False, subpixel=True)
    for _ in range(500):
        cx = rng.uniform(8.0, 15.0)
        cy = rng.uniform(8.0, 15.0)
        sigma = rng.uniform(1.2, 2.0)
        amp = rng.uniform(4.0, 8.0)
        ys, xs = np.mgrid[0:24, 0:24]
        logits = amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))
        logits = logits + rng.normal(scale=0.01, size=logits.shape)
        xi, yi = sample_keypoints(logits, coarse, "inference").xy[0]
        xf, yf = sample_keypoints(logits, fine, "inference").xy[0]
        err_int.append(np.hypot(xi - cx, yi - cy))
        err_sub.append(np.hypot(xf - cx, yf - cy))
    mi = float(np.mean(err_int))
    ms = float(np.mean(err_sub))
    reduction = 1.0 - ms / mi
    dt = time.time() - t0
    ok = reduction >= 0.30 and dt < 60
    _verdict(
        "subpixel refinement",
        ok,
        f"500 gaussian peaks: integer err {mi:.3f}px -> refined {ms:.3f}px, "
        f"reduction {reduction * 100:.1f}% >= 30%, {dt:.0f}s",
    )


# CLI determinism


def _digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _rerun_is_identical(cmd: list[str], out_dir: Path) -> bool:
    assert main(cmd) == 0, f"command failed: {cmd}"
    first = _digest_tree(out_dir)
    assert first, f"command wrote nothing: {cmd}"
    assert main(cmd) == 0, f"rerun failed: {cmd}"
    return _digest_tree(out_dir) == first


def test_acceptance_cli_determinism(tmp_path):
    t0 = time.time()
    toy = tmp_path / "data_toy"
    scenes = tmp_path / "data_scene"
    run = tmp_path / "run"
    weights = run / "weights.dadw"
    det_one = tmp_path / "det_one"
    det_one.mkdir()
    small_net = ["--widths", "4", "--kernel-size", "3"]
    commands = [
        (["synth", "--out", str(toy), "--num-pairs", "2", "--seed", "3",
          "--size", "32", "--num-light", "2", "--num-dark", "2"], toy),
        (["synth", "--out", str(scenes), "--mode", "scenes",
          "--num-pairs", "2", "--seed", "1"], scenes),
        (["train", "--data", str(toy), "--out", str(run),
          "--topk", "4"] + small_net, run),
        (["detect", "--weights", str(weights),
          "--image", str(toy / "pair_000000" / "a.pgm"),
          "--out", str(det_one / "kps.csv"), "--topk", "3",
          "--dump-scoremap", str(det_one / "scores.dadf"),
          "--overlay", str(det_one / "overlay.pgm")], det_one),
        (["detect", "--weights", str(weights), "--data", str(toy),
          "--out", str(tmp_path / "det_all"), "--topk", "4",
          "--threads", "2"], tmp_path / "det_all"),
        (["eval", "--data", str(scenes), "--detections", str(tmp_path / "dets"),
          "--out", str(tmp_path / "eval_gt")], tmp_path / "eval_gt"),
        (["eval", "--data", str(toy), "--weights", str(weights),
          "--topk", "4", "--out", str(tmp_path / "eval_w")], tmp_path / "eval_w"),
        (["gradcheck", "--instances", "2", "--seed", "3",
          "--out", str(tmp_path / "grad" / "report.txt")], tmp_path / "grad"),
        (["distill", "--light", str(weights), "--dark", str(weights),
          "--out", str(tmp_path / "student"), "--mode", "toy", "--size", "32",
          "--num-light", "2", "--num-dark", "2", "--num-pairs", "1"] + small_net,
         tmp_path / "student"),
    ]
    unstable = []
    for cmd, out_dir in commands:
        if cmd[0] == "eval" and "--detections" in cmd:
            # ground-truth keypoints replayed as detections
            dets = tmp_path / "dets"
            if not dets.exists():
                for pair_dir in sorted(scenes.glob("pair_*")):
                    d = dets / pair_dir.name
                    d.mkdir(parents=True)
                    (d / "a.csv").write_bytes((pair_dir / "gt_a.csv").read_bytes())
                    (d / "b.csv").write_bytes((pair_dir / "gt_b.csv").read_bytes())
        if cmd[0] == "gradcheck":
            (tmp_path / "grad").mkdir()
        if not _rerun_is_identical(cmd, out_dir):
            unstable.append(cmd[0])
    dt = time.time() - t0
    ok = not unstable and dt < 300
    _verdict(
        "CLI determinism",
        ok,
        f"{len(commands)} commands x 2 runs, sha256 over every artifact: "
        f"{'all byte-identical' if not unstable else 'UNSTABLE ' + ','.join(unstable)}, {dt:.0f}s",
    )


# toy polarity emergence


def test_acceptance_toy_polarity_emergence():
    cfg = SceneConfig.toy()
    held = generate_pairs(cfg, 50, seed=990_001)
    sc = SamplerConfig(k=10)
    per_seed = []
    worst_dt = 0.0
    for seed in range(3):
        t0 = time.time()
        pairs = generate_pairs(cfg, 2000, seed=seed)
        tc = TrainConfig(arch=ArchConfig(seed=seed))
        params, _ = train_loop(pairs, tc)
        rewards = []
        labels = []
        for p in held:
            sa, _ = forward(params, p.image_a)
            sb, _ = forward(params, p.image_b)
            ka = sample_keypoints(sa, sc, "inference")
            kb = sample_keypoints(sb, sc, "inference")
            mab, _ = toy_matches(ka, kb, p, tc.assign_radius, tc.match_threshold)
            rewards.append(raw_reward(mab.dist, tc.reward).sum())
            labels += list(classify_polarity(ka, p.gt_keypoints_a, p.polarity_a))
            labels += list(classify_polarity(kb, p.gt_keypoints_b, p.polarity_b))
        reward = float(np.mean(rewards))
        n_light = labels.count("light")
        n_dark = labels.count("dark")
        dominant = max(n_light, n_dark) / max(len(labels), 1)
        side = "light" if n_light >= n_dark else "dark"
        worst_dt = max(worst_dt, time.time() - t0)
        per_seed.append((seed, reward, dominant, side))
    ok = all(r >= 9.0 and d >= 0.9 for _, r, d, _ in per_seed) and worst_dt < 600
    detail = "; ".join(f"seed {s}: reward {r:.2f}/10, {d * 100:.0f}% {p}"
                       for s, r, d, p in per_seed)
    _verdict(
        "toy polarity emergence",
        ok,
        f"2000 pairs x 3 seeds, 100 held-out images: {detail}; "
        f"slowest seed {worst_dt:.0f}s",
    )


# light/dark distillation


def _mean_polarity_recall(params, held, k: int) -> dict[str, float]:
    sc = SamplerConfig(k=k)
    out = {"light": [], "dark": []}
    for p in held:
        for img, gt, pol in ((p.image_a, p.gt_keypoints_a, p.polarity_a),
                             (p.image_b, p.gt_keypoints_b, p.polarity_b)):
            smap, _ = forward(params, img)
            kps = sample_keypoints(smap, sc, "inference")
            r = polarity_recall(kps, gt, pol, radius=2.0)
            for lab in out:
                if not math.isnan(r[lab]):
                    out[lab].append(r[lab])
    return {lab: float(np.mean(v)) for lab, v in out.items()}


def test_acceptance_light_dark_distillation():
    t0 = time.time()
    held = generate_pairs(SceneConfig.scenes(), 30, seed=880_001)

    def train_teacher(num_light: int, num_dark: int, seed: int):
        # rotation augmentation breaks the grid-locked edge/ring selections
        # that plain cross-view consistency is equally happy with
        scenes = generate_pairs(
            SceneConfig.scenes(num_light=num_light, num_dark=num_dark, rotation_aug=True),
            600, seed=seed)
        tc = TrainConfig(arch=ArchConfig(seed=seed), sampler=SamplerConfig(k=8),
                         reward=RewardConfig(tau_r=2.0))
        params, _ = train_loop(scenes, tc)
        return params

    light = train_teacher(6, 0, seed=0)
    dark = train_teacher(0, 6, seed=1)
    rl = _mean_polarity_recall(light, held, k=8)
    rd = _mean_polarity_recall(dark, held, k=8)
    teachers_ok = (rl["light"] >= 0.8 and rl["dark"] <= 0.2
                   and rd["dark"] >= 0.8 and rd["light"] <= 0.2)

    dcfg = DistillConfig(scene=SceneConfig.scenes(), r=math.inf,
                         arch=ArchConfig(seed=2), num_pairs=400, seed=7)
    student, _ = train_distilled(light, dark, dcfg)
    rs = _mean_polarity_recall(student, held, k=16)  # matched budget: 2 teachers x k=8
    dt = time.time() - t0
    ok = teachers_ok and rs["light"] >= 0.8 and rs["dark"] >= 0.8 and dt < 900
    _verdict(
        "light/dark distillation",
        ok,
        f"teacher recall own/other: light {rl['light']:.3f}/{rl['dark']:.3f}, "
        f"dark {rd['dark']:.3f}/{rd['light']:.3f} (need >=0.8/<=0.2); "
        f"max-merged student @k=16: light {rs['light']:.3f}, dark {rs['dark']:.3f} "
        f"(need both >=0.8), {dt:.0f}s",
    )
