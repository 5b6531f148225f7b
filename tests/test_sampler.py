"""Keypoint selection pipeline against brute-force reimplementations.

The NMS oracle here re-evaluates the survive-your-window rule pixel by
pixel, including the raster tie-break, and the subpixel oracle recomputes
the tempered local expectation directly.  Quantized random grids force tied
scores so the tie-break actually gets exercised.
"""

import warnings

import numpy as np
import pytest

from dadkit.core import _logits_of, softmax_2d
from dadkit.errors import InvalidInputError, InvalidParameterError
from dadkit.formats import read_keypoints_csv, write_keypoints_csv
from dadkit.sampler import (KeypointSet, SamplerConfig, kde_balance,
                            nms, sample_keypoints, subpixel_refine, top_k)


def nms_oracle(s: np.ndarray, window: int) -> np.ndarray:
    """Pixelwise restatement: survive iff no earlier-equal or larger neighbor."""
    r = window // 2
    h, w = s.shape
    out = np.zeros_like(s)
    for y in range(h):
        for x in range(w):
            v = s[y, x]
            keep = True
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if dy == 0 and dx == 0:
                        continue
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w):
                        continue
                    nv = s[yy, xx]
                    earlier = dy < 0 or (dy == 0 and dx < 0)
                    if earlier and not (nv < v):
                        keep = False
                    elif not earlier and not (nv <= v):
                        keep = False
            if keep:
                out[y, x] = v
    return out


def test_nms_matches_brute_force_oracle():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(8, 14, size=2)
        if seed % 2:  # quantized grids force ties
            s = rng.integers(0, 5, size=(h, w)).astype(np.float64) / 4.0
        else:
            s = rng.random((h, w))
        window = int(rng.choice([3, 5]))
        np.testing.assert_array_equal(nms(s, window), nms_oracle(s, window))


def test_nms_constant_grid_keeps_exactly_the_raster_first_pixel():
    out = nms(np.full((9, 9), 0.5), 3)
    want = np.zeros((9, 9))
    want[0, 0] = 0.5
    np.testing.assert_array_equal(out, want)


def test_nms_tied_pair_keeps_one():
    s = np.zeros((8, 8))
    s[4, 4] = s[4, 5] = 1.0
    out = nms(s, 3)
    assert out[4, 4] == 1.0 and out[4, 5] == 0.0


def test_nms_rejects_bad_window():
    for window in (1, 2, 4):
        with pytest.raises(InvalidParameterError):
            nms(np.zeros((8, 8)), window)


def test_top_k_orders_by_score_then_raster():
    s = np.zeros((6, 6))
    s[1, 1] = 0.5
    s[2, 4] = 0.9
    s[3, 0] = 0.5  # tied with (1,1); raster-earlier one must come first
    s[5, 5] = 0.1
    kps = top_k(s, 3)
    assert kps.xy.tolist() == [[4.0, 2.0], [1.0, 1.0], [0.0, 3.0]]
    assert kps.scores.tolist() == [0.9, 0.5, 0.5]


def test_top_k_ignores_zeros_and_caps_at_nonzero_count():
    s = np.zeros((6, 6))
    s[2, 2] = 0.3
    kps = top_k(s, 10)
    assert len(kps) == 1
    assert len(top_k(np.zeros((6, 6)), 4)) == 0


def test_kde_balance_is_square_root_homogeneous():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = rng.random((12, 12)) + 0.05
        a = kde_balance(4.0 * p, sigma=1.5)
        b = 2.0 * kde_balance(p, sigma=1.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_kde_balance_compresses_cluster_mass_ratio():
    # two identical blobs, one carrying 9x the mass: raw peak ratio is 9,
    # balanced ratio should drop to about sqrt(9)
    p = np.zeros((24, 24))
    blob = np.array([[0.5, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 0.5]])
    p[4:7, 4:7] = 9.0 * blob
    p[16:19, 16:19] = blob
    p = p / p.sum()
    q = kde_balance(p, sigma=1.5)
    raw_ratio = p[5, 5] / p[17, 17]
    balanced_ratio = q[5, 5] / q[17, 17]
    assert raw_ratio == pytest.approx(9.0, rel=1e-12)
    assert balanced_ratio == pytest.approx(3.0, rel=0.15)


def test_subpixel_refine_matches_direct_expectation():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(12, 12))
    kps = top_k(nms(softmax_2d(z), 3), 5)
    ref = subpixel_refine(z, kps, temp=0.7, window=3)
    np.testing.assert_array_equal(ref.scores, kps.scores)
    for (kx, ky), (rx, ry) in zip(kps.xy, ref.xy):
        xi, yi = int(kx), int(ky)
        y0, y1 = max(0, yi - 1), min(12, yi + 2)
        x0, x1 = max(0, xi - 1), min(12, xi + 2)
        wgt = np.exp(z[y0:y1, x0:x1] / 0.7)
        wgt /= wgt.sum()
        ex = float((wgt.sum(axis=0) * np.arange(x0, x1)).sum())
        ey = float((wgt.sum(axis=1) * np.arange(y0, y1)).sum())
        assert rx == pytest.approx(ex, abs=1e-12)
        assert ry == pytest.approx(ey, abs=1e-12)
        assert abs(rx - kx) <= 1.0 and abs(ry - ky) <= 1.0


def _subpixel_refine_reference(scoremap, kps: KeypointSet, temp: float = 0.5,
                               window: int = 3) -> KeypointSet:
    """Refinement that divides before it shifts, verbatim from before the overflow fallback."""
    if not (temp > 0):
        raise InvalidParameterError("temp must be positive")
    if window < 3 or window % 2 == 0:
        raise InvalidParameterError(f"window must be odd and >= 3, got {window}")
    z = _logits_of(scoremap)
    h, w = z.shape
    r = window // 2
    out = np.empty_like(kps.xy)
    for n, (xi, yi) in enumerate(kps.pixels.tolist()):
        y0, y1 = max(0, yi - r), min(h, yi + r + 1)
        x0, x1 = max(0, xi - r), min(w, xi + r + 1)
        patch = z[y0:y1, x0:x1] / temp
        wgt = np.exp(patch - patch.max())
        wgt /= wgt.sum()
        dy = float(wgt.sum(axis=1) @ (np.arange(y0, y1) - yi))
        dx = float(wgt.sum(axis=0) @ (np.arange(x0, x1) - xi))
        out[n] = (xi + dx, yi + dy)
    return KeypointSet(out, kps.scores, kps.source_shape)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e300])
@pytest.mark.parametrize("temp", [4.0, 0.7, 0.5, 0.25, 1e-3, 1e-300, 1e-320])
def test_subpixel_refine_keeps_the_reference_bits_wherever_it_ran_clean(temp, scale):
    z = np.random.default_rng(8).normal(size=(16, 16)) * scale
    kps = top_k(nms(softmax_2d(z), 3), 20)
    got = subpixel_refine(z, kps, temp)  # a RuntimeWarning fails the test
    assert np.isfinite(got.xy).all() and np.abs(got.xy - kps.xy).max() <= 1.0
    if temp <= 1e-300:  # the tempered softmax is the window's hard maximum: the keypoint
        np.testing.assert_array_equal(got.xy, kps.xy)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _subpixel_refine_reference(z, kps, temp)
    except RuntimeWarning:  # the reference has no answer where the tempered logits overflow
        with np.errstate(over="ignore"):
            assert not np.isfinite(z / temp).all()
        return
    assert got.xy.tobytes() == want.xy.tobytes()


def test_subpixel_refine_is_exact_on_symmetric_peak():
    z = np.zeros((11, 11))
    for dy in range(-1, 2):
        for dx in range(-1, 2):
            z[5 + dy, 5 + dx] = 3.0 - (dy * dy + dx * dx)
    kps = KeypointSet([[5.0, 5.0]], [1.0], (11, 11))
    ref = subpixel_refine(z, kps)
    assert ref.xy[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert ref.xy[0, 1] == pytest.approx(5.0, abs=1e-12)


def test_subpixel_refine_pulls_toward_heavier_side():
    z = np.zeros((11, 11))
    z[5, 5] = 3.0
    z[5, 6] = 2.5  # right neighbor much larger than left
    z[5, 4] = 0.0
    kps = KeypointSet([[5.0, 5.0]], [1.0], (11, 11))
    ref = subpixel_refine(z, kps)
    assert ref.xy[0, 0] > 5.05
    assert ref.xy[0, 1] == pytest.approx(5.0, abs=1e-9)


def test_sample_keypoints_reports_raw_softmax_scores():
    rng = np.random.default_rng(7)
    z = rng.normal(0.0, 2.0, size=(16, 16))
    p = softmax_2d(z)
    cfg = SamplerConfig(k=6, use_kde=True, kde_sigma_frac=0.1)
    for mode in ("train", "inference"):
        kps = sample_keypoints(z, cfg, mode)
        assert 0 < len(kps) <= 6
        assert np.all(np.diff(kps.scores) <= 0)
        for (x, y), score in zip(kps.xy, kps.scores):
            assert score == pytest.approx(p[int(y), int(x)], rel=1e-12)


def test_sample_keypoints_selects_nms_survivors():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(14, 14))
        cfg = SamplerConfig(k=8)
        kps = sample_keypoints(z, cfg, "inference")
        surviving = nms_oracle(softmax_2d(z), 3)
        for x, y in kps.xy:
            assert surviving[int(y), int(x)] > 0


def test_sample_keypoints_two_cluster_coverage():
    """Dense nine-peak cluster vs one isolated weaker peak, budget 4.

    Raw probabilities rank every cluster peak above the isolated one, so
    without balancing the whole budget lands in the cluster.  Balancing
    divides by the local density and lets the isolated peak in.
    """
    z = np.zeros((32, 32))
    for i in range(3):
        for j in range(3):
            z[8 + 3 * i, 8 + 3 * j] = 6.0
    z[26, 26] = 5.5
    on = SamplerConfig(k=4, use_kde=True, kde_sigma_frac=0.15)
    off = SamplerConfig(k=4, use_kde=False)
    got_on = sample_keypoints(z, on, "train").xy
    got_off = sample_keypoints(z, off, "train").xy
    isolated_on = np.sum(np.hypot(got_on[:, 0] - 26, got_on[:, 1] - 26) < 3)
    isolated_off = np.sum(np.hypot(got_off[:, 0] - 26, got_off[:, 1] - 26) < 3)
    assert isolated_on >= 1
    assert isolated_off == 0


def test_sample_keypoints_inference_ignores_kde_and_can_refine():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(16, 16))
    plain = SamplerConfig(k=5, use_kde=True, kde_sigma_frac=0.2)
    refined = SamplerConfig(k=5, use_kde=True, kde_sigma_frac=0.2, subpixel=True)
    no_kde = SamplerConfig(k=5, use_kde=False)
    a = sample_keypoints(z, plain, "inference")
    b = sample_keypoints(z, no_kde, "inference")
    np.testing.assert_array_equal(a.xy, b.xy)  # kde has no effect here
    c = sample_keypoints(z, refined, "inference")
    assert np.any(c.xy != a.xy)  # refinement moved something
    np.testing.assert_array_equal(np.round(c.xy), a.xy)


def test_sample_keypoints_rejects_bad_mode():
    with pytest.raises(InvalidParameterError):
        sample_keypoints(np.zeros((8, 8)), SamplerConfig(k=2), "test")


def test_sampler_config_validation():
    with pytest.raises(InvalidParameterError):
        SamplerConfig(k=0)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(nms_window=4)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(subpixel_temp=0.0)


def test_keypoint_set_validation():
    with pytest.raises(InvalidInputError):
        KeypointSet([[8.0, 0.0]], [1.0], (8, 8))  # x out of range
    with pytest.raises(InvalidInputError):
        KeypointSet([[0.0, 0.0], [1.0, 0.0]], [0.1, 0.2], (8, 8))
    with pytest.raises(InvalidInputError):
        KeypointSet([[0.0, 0.0]], [0.5, 0.1], (8, 8))  # two scores, one point
    kps = KeypointSet([[1.0, 2.0]], [0.5], (8, 8))
    assert not (kps.xy.flags.writeable or kps.scores.flags.writeable)


def test_keypoints_csv_round_trip(tmp_path):
    kps = KeypointSet([[3.25, 7.0], [0.0, 0.0]], [0.5, 0.25], (9, 9))
    p = tmp_path / "kps.csv"
    write_keypoints_csv(p, kps)
    back = read_keypoints_csv(p, (9, 9))
    np.testing.assert_array_equal(back.xy, kps.xy)
    np.testing.assert_array_equal(back.scores, kps.scores)
    assert p.read_text().splitlines()[0] == "x,y,score"


def test_keypoints_csv_ignores_extra_columns(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text("x,y,score,polarity\n2.000000,3.000000,1.000000,light\n")
    back = read_keypoints_csv(p, (8, 8))
    assert len(back) == 1 and back.xy[0, 0] == 2.0


def test_keypoints_csv_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n")
    with pytest.raises(InvalidInputError):
        read_keypoints_csv(p, (8, 8))
