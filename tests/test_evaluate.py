"""Repeatability, robust homography estimation, and metric bookkeeping."""

import math

import numpy as np
import pytest

from dadkit.errors import (DegenerateInputError, InsufficientDataError,
                           InvalidInputError, InvalidParameterError)
from dadkit.evaluate import (ErrorCurve, EvalConfig, PER_PAIR_FIELDS, auc,
                             corner_epe, detection_recall, dlt_homography,
                             evaluate_detections, polarity_recall,
                             ransac_homography, repeatability, write_report)
from dadkit.geometry import HomographyTransfer, transfer_points
from dadkit.sampler import Keypoint, KeypointSet
from dadkit.synth import SceneConfig, gen_scene_pair, gen_toy_pair, pair_rng


def kset(points, shape=(64, 64)):
    return KeypointSet(tuple(Keypoint(float(x), float(y), 1.0) for x, y in points), shape)


def translation(tx, ty):
    return HomographyTransfer(np.array([[1.0, 0, tx], [0, 1.0, ty], [0, 0, 1.0]]))


def nice_homography(rng):
    m = np.eye(3)
    m[:2, :2] += rng.normal(scale=0.05, size=(2, 2))
    m[:2, 2] = rng.normal(scale=3.0, size=2)
    m[2, :2] = rng.normal(scale=1e-3, size=2)
    return HomographyTransfer(m)


# repeatability

def test_repeatability_perfect_on_planted_truth():
    rng = np.random.default_rng(0)
    pts = rng.uniform(5, 58, size=(12, 2))
    t = translation(2.0, -1.0)
    moved, _ = transfer_points(t, pts)
    keep = np.all((moved >= 0) & (moved <= 63), axis=1)
    assert repeatability(kset(pts), kset(moved[keep]), t, 0.5) == 1.0


def test_repeatability_counts_fraction_of_covisible():
    pts = [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)]
    near = [(10.4, 10.0), (20.0, 20.3)]  # two redetected, two missed
    far = [(50.0, 50.0), (55.0, 55.0)]
    t = HomographyTransfer.identity()
    assert repeatability(kset(pts), kset(near + far), t, 1.0) == pytest.approx(0.5)


def test_repeatability_greedy_assignment_is_one_to_one():
    ka = kset([(10.0, 10.0), (10.6, 10.0)])
    kb = kset([(10.1, 10.0)])
    got = repeatability(ka, kb, HomographyTransfer.identity(), 2.0)
    assert got == pytest.approx(0.5)  # one b point can serve only one a point


def test_repeatability_degenerate_cases():
    t = HomographyTransfer.identity()
    assert math.isnan(repeatability(kset([]), kset([(1.0, 1.0)]), t, 1.0))
    # everything transferred outside image b
    off = translation(100.0, 0.0)
    assert math.isnan(repeatability(kset([(10.0, 10.0)]), kset([(1.0, 1.0)]), off, 1.0))
    assert repeatability(kset([(10.0, 10.0)]), kset([]), t, 1.0) == 0.0
    with pytest.raises(InvalidParameterError):
        repeatability(kset([(1.0, 1.0)]), kset([(1.0, 1.0)]), t, 0.0)


def repeatability_oracle(src, dst, threshold):
    d = np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2))
    pairs = sorted((d[i, j], i, j) for i in range(len(src)) for j in range(len(dst)))
    used_a, used_b, hits = set(), set(), 0
    for dist, i, j in pairs:
        if dist > threshold:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        hits += 1
    return hits / len(src)


def test_repeatability_matches_greedy_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        a = rng.uniform(5, 58, size=(rng.integers(2, 10), 2))
        b = rng.uniform(5, 58, size=(rng.integers(2, 10), 2))
        got = repeatability(kset(a), kset(b), HomographyTransfer.identity(), 6.0)
        assert got == pytest.approx(repeatability_oracle(a, b, 6.0))


# homography estimation

def test_dlt_recovers_exact_homography():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = nice_homography(rng)
        src = rng.uniform(0, 63, size=(8, 2))
        dst, valid = transfer_points(t, src)
        assert valid.all()
        h = dlt_homography(src, dst)
        probe = rng.uniform(0, 63, size=(20, 2))
        want, _ = transfer_points(t, probe)
        got, _ = transfer_points(h, probe)
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_dlt_minimal_four_points():
    src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    t = nice_homography(np.random.default_rng(42))
    dst, _ = transfer_points(t, src)
    h = dlt_homography(src, dst)
    back, _ = transfer_points(h, src)
    np.testing.assert_allclose(back, dst, atol=1e-8)


def test_dlt_rejects_degenerate_configurations():
    line = np.array([[float(i), 2.0 * i + 1.0] for i in range(6)])
    with pytest.raises(DegenerateInputError):
        dlt_homography(line, line + 1.0)
    same = np.full((5, 2), 3.0)
    with pytest.raises(DegenerateInputError):
        dlt_homography(same, same)
    with pytest.raises(InsufficientDataError):
        dlt_homography(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        dlt_homography(np.zeros((5, 2)), np.zeros((4, 2)))
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        dlt_homography(bad, np.zeros((5, 2)))


def test_ransac_recovers_model_despite_outliers():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = nice_homography(rng)
        src_in = rng.uniform(5, 58, size=(30, 2))
        dst_in, _ = transfer_points(t, src_in)
        src_out = rng.uniform(5, 58, size=(10, 2))
        dst_out = rng.uniform(5, 58, size=(10, 2))
        src = np.vstack([src_in, src_out])
        dst = np.vstack([dst_in, dst_out])
        h, inliers = ransac_homography(src, dst, inlier_threshold=1.0,
                                       iterations=200, rng=seed)
        assert inliers[:30].all()
        assert corner_epe(h, t, (64, 64)) < 1e-6


def test_ransac_handles_noisy_inliers_and_is_deterministic():
    rng = np.random.default_rng(7)
    t = nice_homography(rng)
    src = rng.uniform(5, 58, size=(40, 2))
    dst, _ = transfer_points(t, src)
    dst = dst + rng.normal(scale=0.1, size=dst.shape)
    h1, in1 = ransac_homography(src, dst, 2.0, 100, rng=3)
    h2, in2 = ransac_homography(src, dst, 2.0, 100, rng=3)
    np.testing.assert_array_equal(h1.h, h2.h)
    np.testing.assert_array_equal(in1, in2)
    assert in1.sum() >= 35
    assert corner_epe(h1, t, (64, 64)) < 2.0


def test_ransac_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(InsufficientDataError):
        ransac_homography(pts, pts)
    ok = np.random.default_rng(0).uniform(0, 10, size=(6, 2))
    with pytest.raises(InvalidParameterError):
        ransac_homography(ok, ok, inlier_threshold=0.0)
    with pytest.raises(InvalidParameterError):
        ransac_homography(ok, ok, iterations=0)


# scalar metrics

def test_corner_epe_zero_translation_and_scale_normalization():
    t = HomographyTransfer.identity()
    assert corner_epe(t, t, (480, 480)) == 0.0
    shifted = translation(1.0, 0.0)
    assert corner_epe(shifted, t, (480, 480)) == pytest.approx(1.0)
    assert corner_epe(shifted, t, (240, 240)) == pytest.approx(2.0)
    assert corner_epe(shifted, t, (960, 1280)) == pytest.approx(0.5)


def test_corner_epe_infinite_when_a_corner_vanishes():
    # vanishing line y = 7 passes through two corners of an 8x8 image
    h = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0.5, 1.0]]))
    bad = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, -1.0 / 7.0, 1.0]]))
    assert corner_epe(h, HomographyTransfer.identity(), (8, 8)) != math.inf
    assert corner_epe(bad, HomographyTransfer.identity(), (8, 8)) == math.inf
    with pytest.raises(InvalidInputError):
        corner_epe(h, h, (0, 8))


def test_auc_closed_form_and_riemann_cross_check():
    curve = ErrorCurve((0.0, 1.5, 3.0, 97.0), 3.0)
    assert auc(curve) == pytest.approx(0.375)
    assert auc(ErrorCurve((0.0, 0.0), 5.0)) == 1.0
    assert auc(ErrorCurve((5.0, math.inf), 5.0)) == 0.0
    rng = np.random.default_rng(0)
    errs = tuple(rng.uniform(0, 6, size=40))
    taus = np.linspace(0, 3.0, 30001)
    acc = np.array([(np.asarray(errs) <= t).mean() for t in taus])
    riemann = float(np.trapezoid(acc, taus) / 3.0)
    assert auc(ErrorCurve(errs, 3.0)) == pytest.approx(riemann, abs=1e-3)


def test_error_curve_validation():
    with pytest.raises(InsufficientDataError):
        auc(ErrorCurve((), 3.0))
    with pytest.raises(InvalidInputError):
        ErrorCurve((-1.0,), 3.0)
    with pytest.raises(InvalidInputError):
        ErrorCurve((float("nan"),), 3.0)
    with pytest.raises(InvalidParameterError):
        ErrorCurve((1.0,), 0.0)


def test_detection_recall_counts_covered_gt():
    gt = kset([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)])
    dets = kset([(10.5, 10.0), (20.0, 21.0), (55.0, 55.0)])
    assert detection_recall(dets, gt, 2.0) == pytest.approx(0.5)
    assert math.isnan(detection_recall(dets, kset([]), 2.0))
    assert detection_recall(kset([]), gt, 2.0) == 0.0
    with pytest.raises(InvalidParameterError):
        detection_recall(dets, gt, 0.0)


def test_polarity_recall_splits_by_label():
    gt = kset([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)])
    dets = kset([(10.0, 10.0), (30.0, 30.0)])
    got = polarity_recall(dets, gt, ("light", "light", "dark"), 1.0)
    assert got["light"] == pytest.approx(0.5)
    assert got["dark"] == pytest.approx(1.0)
    none_dark = polarity_recall(dets, gt, ("light", "light", "light"), 1.0)
    assert math.isnan(none_dark["dark"])


# the harness

def gt_detections(pair):
    return (kset(pair.gt_keypoints_a.xy(), pair.shape),
            kset(pair.gt_keypoints_b.xy(), pair.shape))


def test_evaluate_detections_toy_rows():
    cfg = SceneConfig.toy(size=48, num_light=3, num_dark=2)
    pairs = [gen_toy_pair(pair_rng(1, i), cfg) for i in range(3)]
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    assert summary["num_pairs"] == 3.0
    assert summary["toy_mean_hits"] == 5.0
    assert summary["toy_frac_light"] + summary["toy_frac_dark"] == pytest.approx(1.0)
    assert summary["recall_light"] == 1.0 and summary["recall_dark"] == 1.0
    assert all(r["kind"] == "toy" and math.isnan(r["repeatability"]) for r in rows)


def test_evaluate_detections_scene_rows_on_ground_truth():
    cfg = SceneConfig.scenes(size=64, num_light=5, num_dark=5)
    pairs = [gen_scene_pair(pair_rng(2, i), cfg) for i in range(4)]
    pairs = [p for p in pairs if len(p.gt_keypoints_b) >= 4]
    assert len(pairs) >= 2
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    assert summary["mean_repeatability"] == pytest.approx(1.0)
    assert summary["auc_epe"] > 0.95
    assert summary["median_epe"] < 0.5
    for row in rows:
        assert row["kind"] == "scene"
        assert row["num_matches"] >= 4
        assert row["corner_epe"] < 0.5
        assert math.isnan(row["toy_hits"])


def test_evaluate_detections_validation():
    cfg = SceneConfig.toy(size=48, num_light=2, num_dark=2)
    pair = gen_toy_pair(pair_rng(0, 0), cfg)
    with pytest.raises(InvalidInputError):
        evaluate_detections([pair], [])
    with pytest.raises(InsufficientDataError):
        evaluate_detections([], [])


def test_write_report_formats(tmp_path):
    cfg = SceneConfig.toy(size=48, num_light=2, num_dark=2)
    pairs = [gen_toy_pair(pair_rng(3, i), cfg) for i in range(2)]
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    rp, cp = tmp_path / "report.txt", tmp_path / "per_pair.csv"
    write_report(rp, cp, summary, rows)
    lines = rp.read_text().splitlines()
    assert lines == sorted(lines)
    parsed = dict(l.split("=", 1) for l in lines)
    assert float(parsed["toy_mean_hits"]) == 4.0
    csv_lines = cp.read_text().splitlines()
    assert csv_lines[0] == ",".join(PER_PAIR_FIELDS)
    assert len(csv_lines) == 3
    first = dict(zip(PER_PAIR_FIELDS, csv_lines[1].split(",")))
    assert first["kind"] == "toy"
    assert first["repeatability"] == "nan"


def test_eval_config_validation():
    with pytest.raises(InvalidParameterError):
        EvalConfig(match_threshold=0.0)
    with pytest.raises(InvalidParameterError):
        EvalConfig(ransac_iterations=0)
