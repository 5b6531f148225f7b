"""Pair generators, toy-task semantics, strategy rewards, and dataset IO."""

import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.core import Mask
from dadkit.errors import (DegenerateTransferError, InvalidInputError,
                           InvalidParameterError, PlacementError)
from dadkit.geometry import (HomographyTransfer, MatchSet, _nearest, covisibility_mask,
                             transfer_points)
from dadkit.sampler import KeypointSet
from dadkit.formats import (config_meta, generate_dataset, load_dataset, load_pair,
                            read_gt_csv, read_meta, read_pgm, save_pair, write_gt_csv,
                            write_homography, write_pgm)
from dadkit.synth import (HomographyMagnitude, PairSample, SceneConfig,
                          check_pair_consistency, classify_polarity,
                          expected_strategy_reward,
                          gen_scene_pair, gen_toy_pair, generate_pairs, make_pair,
                          pair_rng, sample_homography, toy_matches,
                          toy_pair_hits)


def kset(points, shape):
    return KeypointSet(points, np.ones(len(points)), shape)


def pairwise_min_dist(xy: np.ndarray) -> float:
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return float(d.min())


# generators

def test_toy_pair_layout_and_labels():
    cfg = SceneConfig.toy(size=48, num_light=4, num_dark=3)
    for seed in range(5):
        pair = gen_toy_pair(pair_rng(11, seed), cfg)
        assert pair.kind == "toy"
        assert pair.shape == (48, 48)
        assert pair.polarity_a == ("light",) * 4 + ("dark",) * 3
        assert pair.polarity_b == pair.polarity_a
        assert pair.mask_a.count() == 48 * 48
        np.testing.assert_array_equal(pair.transfer.h, np.eye(3))
        for img, gt in ((pair.image_a, pair.gt_keypoints_a),
                        (pair.image_b, pair.gt_keypoints_b)):
            xy = gt.xy
            assert np.all(xy == np.round(xy))  # dots live on pixel centers
            assert pairwise_min_dist(xy) >= cfg.min_separation
            assert xy.min() >= cfg.margin
            assert xy.max() <= cfg.size - 1 - cfg.margin
            painted = np.full((48, 48), cfg.background_gray)
            for (x, y), pol in zip(xy, pair.polarity_a):
                painted[int(y), int(x)] = 1.0 if pol == "light" else 0.0
            np.testing.assert_array_equal(img, painted)


def test_scene_pair_geometry_is_self_consistent():
    cfg = SceneConfig.scenes(size=48, num_light=3, num_dark=3)
    for seed in range(6):
        pair = gen_scene_pair(pair_rng(7, seed), cfg)
        check_pair_consistency(pair)
        assert pair.kind == "scene"
        assert 0.0 <= pair.image_a.min() and pair.image_a.max() <= 1.0
        assert pairwise_min_dist(pair.gt_keypoints_a.xy) >= cfg.min_separation
        moved, valid = transfer_points(pair.transfer, pair.gt_keypoints_a.xy)
        inside = valid & np.all((moved >= 0) & (moved <= 47), axis=1)
        np.testing.assert_allclose(moved[inside], pair.gt_keypoints_b.xy, atol=1e-9)
        expect_mask = covisibility_mask(pair.transfer, pair.shape, pair.shape)
        np.testing.assert_array_equal(pair.mask_a.bits, expect_mask.bits)


def test_scene_negation_inverts_b_and_flips_labels():
    base = dict(size=48, num_light=3, num_dark=2)
    off = gen_scene_pair(pair_rng(3, 0), SceneConfig.scenes(**base))
    neg = gen_scene_pair(pair_rng(3, 0), SceneConfig.scenes(negation_aug="rgb", **base))
    np.testing.assert_array_equal(off.image_a, neg.image_a)
    np.testing.assert_allclose(neg.image_b, 1.0 - off.image_b, atol=1e-12)
    flip = {"light": "dark", "dark": "light"}
    assert neg.polarity_b == tuple(flip[l] for l in off.polarity_b)
    assert neg.polarity_a == off.polarity_a


def test_scene_rotation_aug_keeps_pairs_consistent():
    cfg = SceneConfig.scenes(size=48, num_light=3, num_dark=3, rotation_aug=True)
    mats = []
    for seed in range(6):
        pair = gen_scene_pair(pair_rng(21, seed), cfg)
        check_pair_consistency(pair)
        mats.append(pair.transfer.h)
    # the 90-degree factor should show up as large off-diagonal terms sometimes
    assert any(abs(m[0, 1]) > 0.5 for m in mats)


def test_generators_are_deterministic_per_stream():
    cfg = SceneConfig.scenes(size=48, num_light=3, num_dark=3)
    p1 = gen_scene_pair(pair_rng(5, 2), cfg)
    p2 = gen_scene_pair(pair_rng(5, 2), cfg)
    np.testing.assert_array_equal(p1.image_a, p2.image_a)
    np.testing.assert_array_equal(p1.image_b, p2.image_b)
    np.testing.assert_array_equal(p1.transfer.h, p2.transfer.h)
    p3 = gen_scene_pair(pair_rng(5, 3), cfg)
    assert np.any(p3.image_a != p1.image_a)


def test_placement_error_when_layout_is_too_dense():
    cfg = SceneConfig.toy(size=16, num_light=20, num_dark=20)
    with pytest.raises(PlacementError):
        gen_toy_pair(pair_rng(0, 0), cfg)


def test_tight_layout_that_fits_is_redrawn_until_placed():
    # a central first dot leaves no room for the second; the layout is redrawn
    pair = gen_toy_pair(pair_rng(0, 0), SceneConfig.toy(size=16, num_light=1, num_dark=1))
    for gt in (pair.gt_keypoints_a, pair.gt_keypoints_b):
        assert pairwise_min_dist(gt.xy) >= 8.0


def test_scene_config_validation():
    with pytest.raises(InvalidParameterError):
        SceneConfig(size=8)
    with pytest.raises(InvalidParameterError):
        SceneConfig(num_light=0, num_dark=0)
    with pytest.raises(InvalidParameterError):
        SceneConfig(shape_palette=("dot", "star"))
    with pytest.raises(InvalidParameterError):
        SceneConfig(negation_aug="invert")
    with pytest.raises(InvalidParameterError):
        SceneConfig(min_separation=4.0)
    with pytest.raises(InvalidParameterError):
        SceneConfig(background_gray=1.0)
    with pytest.raises(InvalidParameterError):
        HomographyMagnitude(scale_range=(0.0, 1.0))
    for field in ("noise_sigma", "margin", "min_separation"):
        with pytest.raises(InvalidParameterError):
            replace(SceneConfig.scenes(), **{field: float("nan")})
    for field in ("perspective_jitter", "max_translation", "max_rotation_deg"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match=field):
                HomographyMagnitude(**{field: value})
    with pytest.raises(InvalidParameterError, match="scale_range"):
        HomographyMagnitude(scale_range=(1.0, float("inf")))


# homography sampling

def test_sample_homography_respects_covisibility_floor():
    rng = np.random.default_rng(0)
    mag = HomographyMagnitude()
    shape = (64, 64)
    for _ in range(10):
        t = sample_homography(rng, mag, shape, min_covisible=0.4)
        total = 64 * 64
        assert covisibility_mask(t, shape, shape).count() >= 0.4 * total
        assert covisibility_mask(t.inverse(), shape, shape).count() >= 0.4 * total
        rt = t.compose(t.inverse())
        pts = np.array([[5.0, 7.0], [40.0, 12.0], [31.0, 55.0]])
        back, valid = transfer_points(rt, pts)
        assert valid.all()
        np.testing.assert_allclose(back, pts, atol=1e-9)


def test_sample_homography_none_magnitude_is_identity():
    t = sample_homography(np.random.default_rng(0), HomographyMagnitude.none(), (32, 32))
    np.testing.assert_allclose(t.h, np.eye(3), atol=1e-12)


def test_sample_homography_gives_up_when_floor_is_unreachable():
    mag = HomographyMagnitude(max_translation=0.95, scale_range=(1.0, 1.0),
                              perspective_jitter=0.0, max_rotation_deg=0.0)
    rng = np.random.default_rng(1)
    with pytest.raises(DegenerateTransferError):
        sample_homography(rng, mag, (32, 32), min_covisible=0.9, max_tries=40)


# toy matching semantics

def toy_pair_fixture(seed=0, num_light=3, num_dark=2):
    cfg = SceneConfig.toy(size=48, num_light=num_light, num_dark=num_dark)
    return gen_toy_pair(pair_rng(100, seed), cfg)


def test_toy_matches_identity_offsets_score_zero():
    pair = toy_pair_fixture()
    shift = np.array([1.0, 0.5])
    ka = kset(pair.gt_keypoints_a.xy + shift, pair.shape)
    kb = kset(pair.gt_keypoints_b.xy + shift, pair.shape)
    mab, mba = toy_matches(ka, kb, pair)
    assert len(mab) == len(pair.gt_keypoints_a)
    assert mab.ia.tolist() == mba.ia.tolist() and mab.ib.tolist() == mba.ib.tolist()
    assert mab.dist.max() < 1e-9


def test_toy_matches_cap_one_per_identity():
    pair = toy_pair_fixture()
    ga = pair.gt_keypoints_a.xy
    doubled = np.concatenate([ga, ga + np.array([1.0, 0.0])])
    ka = kset(doubled, pair.shape)
    kb = kset(pair.gt_keypoints_b.xy, pair.shape)
    mab, _ = toy_matches(ka, kb, pair)
    assert len(mab) == len(ga)  # extra selections cannot inflate the count
    assert len(set(mab.ib.tolist())) == len(ga)


def test_toy_matches_requires_both_sides():
    pair = toy_pair_fixture(num_light=3, num_dark=2)
    light = [i for i, p in enumerate(pair.polarity_a) if p == "light"]
    ka = kset(pair.gt_keypoints_a.xy, pair.shape)
    kb = kset(pair.gt_keypoints_b.xy[light], pair.shape)
    mab, _ = toy_matches(ka, kb, pair)
    assert len(mab) == len(light)


def test_toy_matches_assign_radius_excludes_strays():
    pair = toy_pair_fixture()
    far = pair.gt_keypoints_a.xy + np.array([5.0, 5.0])  # beyond radius 4
    ka = kset(far, pair.shape)
    kb = kset(pair.gt_keypoints_b.xy, pair.shape)
    mab, mba = toy_matches(ka, kb, pair, assign_radius=4.0)
    assert len(mab) == 0 and len(mba) == 0


def test_toy_matches_match_threshold_prunes_bad_offsets():
    pair = toy_pair_fixture()
    ka = kset(pair.gt_keypoints_a.xy + np.array([2.0, 0.0]), pair.shape)
    kb = kset(pair.gt_keypoints_b.xy - np.array([2.0, 0.0]), pair.shape)
    mab, _ = toy_matches(ka, kb, pair, match_threshold=1.0)  # offsets differ by 4
    assert len(mab) == 0
    mab, _ = toy_matches(ka, kb, pair, match_threshold=np.inf)
    assert len(mab) == len(pair.gt_keypoints_a)


def test_toy_matches_rejects_scene_pairs():
    scene = gen_scene_pair(pair_rng(0, 0), SceneConfig.scenes(size=48, num_light=2, num_dark=2))
    k = kset([(10.0, 10.0)], scene.shape)
    with pytest.raises(InvalidInputError):
        toy_matches(k, k, scene)


def _toy_matches_reference(ka, kb, pair, assign_radius=4.0, match_threshold=np.inf):
    """toy_matches as a loop over dot identities, the scalar reference."""
    if len(ka) == 0 or len(kb) == 0:
        return MatchSet((), (), ())
    ga, gb = pair.gt_keypoints_a.xy, pair.gt_keypoints_b.xy
    pa, pb = ka.xy, kb.xy

    def assign(points, gt):
        idx, dist = _nearest(points, gt)
        return np.where(dist <= assign_radius, idx, -1)

    owner_a = assign(pa, ga)
    owner_b = assign(pb, gb)
    pairs: list[tuple[int, int, float]] = []
    for i in range(len(ga)):
        ia = np.flatnonzero(owner_a == i)
        ib = np.flatnonzero(owner_b == i)
        if len(ia) == 0 or len(ib) == 0:
            continue
        offs_a = pa[ia] - ga[i]
        offs_b = pb[ib] - gb[i]
        d = np.sqrt(((offs_a[:, None, :] - offs_b[None, :, :]) ** 2).sum(axis=2))
        na = d.argmin(axis=1)
        nb = d.argmin(axis=0)
        best = None
        for j in range(len(ia)):
            k = na[j]
            if nb[k] != j or d[j, k] > match_threshold:
                continue
            if best is None or d[j, k] < best[2]:
                best = (int(ia[j]), int(ib[k]), float(d[j, k]))
        if best is not None:
            pairs.append(best)
    m = np.array(pairs, dtype=np.float64).reshape(-1, 3)
    return MatchSet(m[:, 0], m[:, 1], m[:, 2])


_SIZE = 24


@st.composite
def toy_selections(draw):
    """A toy pair of 1-4 dots (coincident dots allowed) and a selection per image.

    Each selected point sits at a quarter-pixel offset of up to 6 px from a
    dot, so offsets tie often and some points stray beyond assign_radius 4.
    """
    n = draw(st.integers(1, 4))
    coord = st.integers(0, _SIZE - 1)

    def dots():
        return np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
                        dtype=np.float64)

    def selection(gt):
        offset = st.integers(-24, 24)
        rows = draw(st.lists(st.tuples(st.integers(0, n - 1), offset, offset), max_size=8))
        xy = np.array([gt[i] + (dx / 4, dy / 4) for i, dx, dy in rows]).reshape(-1, 2)
        return kset(np.clip(xy, 0, _SIZE - 1), (_SIZE, _SIZE))

    ga, gb = dots(), dots()
    shape, labels = (_SIZE, _SIZE), ("light",) * n
    gray = np.full(shape, 0.5)
    pair = PairSample(gray, gray, HomographyTransfer.identity(),
                      kset(ga, shape), kset(gb, shape), labels, labels, kind="toy")
    return pair, selection(ga), selection(gb)


@settings(deadline=None, max_examples=400)
@given(case=toy_selections(), threshold=st.sampled_from([np.inf, 1.0, 2.0]))
def test_toy_matches_equals_the_per_identity_loop(case, threshold):
    pair, ka, kb = case
    mab, mba = toy_matches(ka, kb, pair, 4.0, threshold)
    ref = _toy_matches_reference(ka, kb, pair, 4.0, threshold)
    for m in (mab, mba):
        assert m.ia.tolist() == ref.ia.tolist() and m.ib.tolist() == ref.ib.tolist()
        assert m.dist.tobytes() == ref.dist.tobytes()


def test_toy_pair_hits_counts_identities_seen_twice():
    pair = toy_pair_fixture(num_light=3, num_dark=2)
    full_a = kset(pair.gt_keypoints_a.xy, pair.shape)
    full_b = kset(pair.gt_keypoints_b.xy, pair.shape)
    assert toy_pair_hits(pair, full_a, full_b) == 5
    light = [i for i, p in enumerate(pair.polarity_b) if p == "light"]
    only_light_b = kset(pair.gt_keypoints_b.xy[light], pair.shape)
    assert toy_pair_hits(pair, full_a, only_light_b) == 3
    assert toy_pair_hits(pair, kset([], pair.shape), full_b) == 0


def test_classify_polarity_labels_by_nearest_structure():
    shape = (32, 32)
    gt = kset([(8.0, 8.0), (20.0, 20.0)], shape)
    kps = kset([(9.0, 8.0), (20.5, 19.5), (28.0, 5.0)], shape)
    got = classify_polarity(kps, gt, ("light", "dark"), radius=4.0)
    assert got == ("light", "dark", "none")
    assert classify_polarity(kset([], shape), gt, ("light", "dark")) == ()
    assert classify_polarity(kps, kset([], shape), ()) == ("none",) * 3


# strategy rewards

def test_strategy_rewards_default_layout():
    cfg = SceneConfig.toy()
    assert expected_strategy_reward("light-only", cfg, trials=2000) == 10.0
    assert expected_strategy_reward("dark-only", cfg, trials=2000) == 10.0
    mixed = expected_strategy_reward("mixed-5-5", cfg, trials=100_000)
    assert mixed == pytest.approx(5.0, abs=0.05)


def test_strategy_rewards_asymmetric_layout():
    # budget 3: light-only picks 3 of 4 (overlap 2 or 3, mean 9/4);
    # dark-only always picks both darks; mixed splits 1 light + 2 dark.
    cfg = SceneConfig.toy(num_light=4, num_dark=2)
    assert expected_strategy_reward("dark-only", cfg, trials=2000) == 2.0
    light = expected_strategy_reward("light-only", cfg, trials=50_000)
    assert light == pytest.approx(2.25, abs=0.02)
    mixed = expected_strategy_reward("mixed-5-5", cfg, trials=50_000)
    assert mixed == pytest.approx(1.0 / 4.0 + 2.0, abs=0.02)


def test_strategy_reward_validation():
    cfg = SceneConfig.toy()
    with pytest.raises(InvalidParameterError):
        expected_strategy_reward("all", cfg)
    with pytest.raises(InvalidParameterError):
        expected_strategy_reward("mixed-5-5", cfg, trials=0)


# file formats

def test_pgm_round_trip_is_exact_at_8_bits(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 9)).astype(np.float64) / 255.0
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    np.testing.assert_array_equal(read_pgm(p), img)
    write_pgm(p, rng.random((6, 6)) > 0.5)
    back = read_pgm(p)
    assert set(np.unique(back)) <= {0.0, 1.0}


def test_pgm_reader_handles_comments_and_rejects_other_formats(tmp_path):
    p = tmp_path / "c.pgm"
    payload = bytes(range(6))
    p.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + payload)
    img = read_pgm(p)
    np.testing.assert_allclose(img * 255.0, np.arange(6).reshape(2, 3))
    p.write_bytes(b"P2\n3 2\n255\n0 1 2 3 4 5\n")
    with pytest.raises(InvalidInputError):
        read_pgm(p)
    p.write_bytes(b"P5\n3 2\n65535\n" + payload * 2)
    with pytest.raises(InvalidInputError):
        read_pgm(p)


def test_pgm_writer_validates_payload(tmp_path):
    with pytest.raises(InvalidInputError):
        write_pgm(tmp_path / "x.pgm", np.full((4, 4), 1.5))
    with pytest.raises(InvalidInputError):
        write_pgm(tmp_path / "x.pgm", np.zeros(16))


def test_gt_csv_round_trip(tmp_path):
    shape = (32, 40)
    kps = kset([(1.25, 2.5), (30.125, 8.0)], shape)
    p = tmp_path / "gt.csv"
    write_gt_csv(p, kps, ("light", "dark"))
    back, pol = read_gt_csv(p, shape)
    assert pol == ("light", "dark")
    np.testing.assert_allclose(back.xy, kps.xy, atol=1e-6)
    assert back.source_shape == shape
    with pytest.raises(InvalidInputError):
        write_gt_csv(p, kps, ("light",))


def test_read_meta_skips_blank_and_junk_lines(tmp_path):
    p = tmp_path / "meta.txt"
    p.write_text("kind=toy\n\n# a comment\n seed = 3 \n")
    assert read_meta(p) == {"kind": "toy", "seed": "3"}
    p.write_text("kind=toy\n\nnot a pair\n seed = 3 \n")
    with pytest.raises(InvalidInputError, match="meta.txt:3"):
        read_meta(p)


def test_config_meta_covers_every_layout_knob():
    meta = config_meta(SceneConfig.scenes(size=48, rotation_aug=True))
    assert meta["size"] == 48
    assert meta["shape_palette"] == "dot,cross,blob,corner"
    assert meta["rotation_aug"] == 1
    assert list(meta) == [
        "size", "num_light", "num_dark", "shape_palette", "background_gray",
        "rotation_aug", "negation_aug", "min_separation", "margin",
        "noise_sigma", "hm_perspective_jitter", "hm_max_translation",
        "hm_scale_lo", "hm_scale_hi", "hm_max_rotation_deg",
    ]


def test_save_load_pair_round_trip(tmp_path):
    pair = gen_scene_pair(pair_rng(9, 0), SceneConfig.scenes(size=48, num_light=3, num_dark=3))
    save_pair(tmp_path / "p", pair, extra_meta={"index": 0})
    back = load_pair(tmp_path / "p")
    assert back.kind == "scene"
    np.testing.assert_array_equal(back.image_a, np.round(pair.image_a * 255) / 255)
    np.testing.assert_array_equal(back.image_b, np.round(pair.image_b * 255) / 255)
    np.testing.assert_allclose(back.transfer.h, pair.transfer.h, rtol=0, atol=0)
    np.testing.assert_array_equal(back.mask_a.bits, pair.mask_a.bits)
    np.testing.assert_array_equal(back.mask_b.bits, pair.mask_b.bits)
    np.testing.assert_allclose(back.gt_keypoints_a.xy, pair.gt_keypoints_a.xy, atol=1e-6)
    assert back.polarity_b == pair.polarity_b
    check_pair_consistency(back, tol=1e-5)


def dir_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_generate_dataset_round_trip_and_determinism(tmp_path):
    cfg = SceneConfig.toy(size=48, num_light=3, num_dark=3)
    paths = generate_dataset(tmp_path / "d1", cfg, 3, seed=4)
    assert [p.name for p in paths] == ["pair_000000", "pair_000001", "pair_000002"]
    assert not (tmp_path / "d1" / "meta.txt").exists()  # the caller's to write
    meta = read_meta(paths[2] / "meta.txt")
    assert meta == {"kind": "toy", "seed": "4", "index": "2",
                    **{k: str(v) for k, v in config_meta(cfg).items()}}
    loaded = load_dataset(tmp_path / "d1")
    assert len(loaded) == 3 and all(p.kind == "toy" for p in loaded)
    in_memory = generate_pairs(cfg, 3, seed=4)
    for disk, mem in zip(loaded, in_memory):
        np.testing.assert_array_equal(disk.image_a, np.round(mem.image_a * 255) / 255)
    generate_dataset(tmp_path / "d2", cfg, 3, seed=4)
    assert dir_digest(tmp_path / "d1") == dir_digest(tmp_path / "d2")


def test_generate_dataset_empty_and_invalid(tmp_path):
    cfg = SceneConfig.toy(size=48, num_light=2, num_dark=2)
    paths = generate_dataset(tmp_path / "empty", cfg, 0, seed=0)
    assert paths == []
    assert (tmp_path / "empty").is_dir()
    with pytest.raises(InvalidInputError):
        load_dataset(tmp_path / "empty")
    with pytest.raises(InvalidParameterError):
        generate_dataset(tmp_path / "x", cfg, -1, seed=0)


def test_scene_config_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError, match="kind"):
        SceneConfig(kind="video")


def _expected_masks(pair):
    if pair.kind == "toy":
        return Mask.full(pair.image_a.shape), Mask.full(pair.image_b.shape)
    return (covisibility_mask(pair.transfer, pair.image_a.shape, pair.image_b.shape),
            covisibility_mask(pair.transfer.inverse(), pair.image_b.shape, pair.image_a.shape))


@pytest.mark.parametrize("cfg", [
    SceneConfig.toy(size=32, num_light=2, num_dark=2),
    SceneConfig.scenes(size=32, num_light=2, num_dark=2),
    SceneConfig.scenes(size=32, num_light=2, num_dark=2, rotation_aug=True, negation_aug="rgb"),
], ids=["toy", "scene", "scene-rotation-negation"])
def test_pair_masks_derive_from_the_transfer(tmp_path, cfg):
    for i in range(4):
        pair = make_pair(cfg, 21, i)
        want_a, want_b = _expected_masks(pair)
        np.testing.assert_array_equal(pair.mask_a.bits, want_a.bits)
        np.testing.assert_array_equal(pair.mask_b.bits, want_b.bits)
        if cfg.kind == "scene":
            assert 0 < pair.mask_a.count() < pair.mask_a.bits.size
        d = tmp_path / str(i)
        save_pair(d, pair)
        np.testing.assert_array_equal(read_pgm(d / "mask_a.pgm") > 0.5, pair.mask_a.bits)
        np.testing.assert_array_equal(read_pgm(d / "mask_b.pgm") > 0.5, pair.mask_b.bits)
        # the written masks are for inspection; loading derives them from h.txt
        write_pgm(d / "mask_a.pgm", ~pair.mask_a.bits)
        (d / "mask_b.pgm").unlink()
        back = load_pair(d)
        np.testing.assert_array_equal(back.mask_a.bits, pair.mask_a.bits)
        np.testing.assert_array_equal(back.mask_b.bits, pair.mask_b.bits)


@pytest.mark.parametrize("bound, value", [
    ("perspective_jitter", 0.0), ("max_translation", 0.5), ("scale_range", (0.5, 1.12)),
    ("max_rotation_deg", 90.0),
])
def test_toy_config_rejects_homography_bounds_it_never_reads(bound, value):
    magnitude = replace(HomographyMagnitude(), **{bound: value})
    key = "hm_scale_lo" if bound == "scale_range" else "hm_" + bound
    with pytest.raises(InvalidParameterError, match=key):
        replace(SceneConfig.toy(), homography_magnitude=magnitude)
    # a scene config takes the same bound, and a toy config the default one
    replace(SceneConfig.scenes(), homography_magnitude=magnitude)
    assert SceneConfig.toy().homography_magnitude == HomographyMagnitude()


def _shifted_pair(gt_a, gt_b):
    """A 32x32 scene pair whose transfer moves every point 1 px to the right."""
    shape = (32, 32)
    transfer = HomographyTransfer(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    return PairSample(np.full(shape, 0.5), np.full(shape, 0.5), transfer,
                      kset(gt_a, shape), kset(gt_b, shape),
                      ("light",) * len(gt_a), ("light",) * len(gt_b), "scene")


@pytest.mark.parametrize("x_a, x_b, inside", [(30.0000004, 31.0, False),
                                               (29.9999996, 30.9999996, True)],
                         ids=["just_outside", "just_inside"])
def test_gt_within_tol_of_the_border_may_be_present_or_absent(x_a, x_b, inside):
    # gt_a's second point transfers to 4e-7 px from B's right border (x = 31)
    gt_a = [[10.0, 10.0], [x_a, 20.0]]
    absent = _shifted_pair(gt_a, [[11.0, 10.0]])
    present = _shifted_pair(gt_a, [[11.0, 10.0], [x_b, 20.0]])
    check_pair_consistency(absent)
    check_pair_consistency(present)
    # with a tolerance below that gap, the side of the border decides
    with pytest.raises(InvalidInputError, match="transfer predicts"):
        check_pair_consistency(absent if inside else present, tol=1e-8)


def test_gt_far_from_the_border_must_match_the_transfer():
    inside = [[10.0, 10.0]]
    with pytest.raises(InvalidInputError, match="transfer predicts"):  # well inside, absent
        check_pair_consistency(_shifted_pair(inside + [[29.5, 20.0]], [[11.0, 10.0]]))
    with pytest.raises(InvalidInputError, match="transfer predicts"):  # well outside, present
        check_pair_consistency(_shifted_pair(inside + [[30.5, 20.0]],
                                             [[11.0, 10.0], [31.0, 20.0]]))
    with pytest.raises(InvalidInputError, match="disagree"):
        check_pair_consistency(_shifted_pair(inside, [[11.1, 10.0]]))


def test_load_pair_accepts_every_fresh_pair(tmp_path):
    # the gt CSVs keep six decimals, so a written pair is off its transfer by
    # about 1e-6 px: more than the construction check's tolerance, far less
    # than the loader's
    strict_rejects = 0
    for name, cfg, count in (("plain", SceneConfig.scenes(), 200),
                             ("aug", SceneConfig.scenes(rotation_aug=True, negation_aug="rgb"),
                              100)):
        for d in generate_dataset(tmp_path / name, cfg, count, seed=0):
            pair = load_pair(d)
            try:
                check_pair_consistency(pair)
            except InvalidInputError:
                strict_rejects += 1
    assert strict_rejects > 0


def test_load_pair_names_a_pair_whose_gt_disagrees_with_h(tmp_path):
    d = generate_dataset(tmp_path, SceneConfig.scenes(), 1, seed=0)[0]
    pair = load_pair(d)
    shift = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    write_homography(d / "h.txt", HomographyTransfer(shift @ pair.transfer.h))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(d))}: gt"):
        load_pair(d)


def test_singular_homography_candidates_are_redrawn():
    # a translation of ~6e4 px makes most candidates singular by the homography
    # rule; each is a rejected draw, and the draw as a whole fails on covisibility
    magnitude = HomographyMagnitude(max_translation=1e3)
    with pytest.raises(DegenerateTransferError,
                       match="no homography with >= 40% covisibility in 200 tries"):
        sample_homography(np.random.default_rng(0), magnitude, (64, 64))


def test_pair_rng_streams_are_stable_and_independent():
    a = pair_rng(3, 0).random(4)
    b = pair_rng(3, 0).random(4)
    c = pair_rng(3, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
