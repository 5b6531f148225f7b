"""Scoring detectors of three quality levels against known geometry.

Twenty rendered scene pairs come with exact ground-truth keypoints and the
homography relating the views. An oracle detector (the ground truth
itself), a jittered one, and a uniformly random one run through the same
harness: repeatability, mutual-NN matching, RANSAC homography recovery,
corner end-point error, and recall per polarity.
"""

import numpy as np

from dadkit.evaluate import EvalConfig, evaluate_detections
from dadkit.sampler import KeypointSet
from dadkit.synth import SceneConfig, generate_pairs


def kset(xy, shape) -> KeypointSet:
    return KeypointSet(xy, np.ones(len(xy)), shape)


def jitter(kps: KeypointSet, rng, sigma: float) -> KeypointSet:
    xy = kps.xy + rng.normal(scale=sigma, size=(len(kps), 2))
    h, w = kps.source_shape
    xy[:, 0] = np.clip(xy[:, 0], 0, w - 1)
    xy[:, 1] = np.clip(xy[:, 1], 0, h - 1)
    return kset(xy, kps.source_shape)


def random_kps(shape, rng, n: int = 12) -> KeypointSet:
    h, w = shape
    xy = np.column_stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)])
    return kset(xy, shape)


def main() -> None:
    pairs = generate_pairs(SceneConfig.scenes(), 20, seed=5)
    rng = np.random.default_rng(0)
    detectors = {
        "oracle": [(p.gt_keypoints_a, p.gt_keypoints_b) for p in pairs],
        "jitter 0.2px": [(jitter(p.gt_keypoints_a, rng, 0.2),
                          jitter(p.gt_keypoints_b, rng, 0.2)) for p in pairs],
        "random": [(random_kps(p.shape, rng), random_kps(p.shape, rng))
                   for p in pairs],
    }

    cols = ("mean_repeatability", "auc_epe", "median_epe", "recall_light", "recall_dark")
    print(f"{'detector':<14}" + "".join(f"{c:>20}" for c in cols))
    for name, dets in detectors.items():
        summary, _ = evaluate_detections(pairs, dets, EvalConfig())
        cells = "".join(f"{summary.get(c, float('nan')):>20.4g}" for c in cols)
        print(f"{name:<14}{cells}")

    print("\nthe oracle pins repeatability at 1 and corner error near zero.")
    print("corner EPE is normalized to a 480px frame, multiplying pixel")
    print("errors at these 64px images by 7.5, so even 0.2px of keypoint")
    print("jitter pushes the median corner error to the 3px AUC cutoff;")
    print("random points rarely assemble 4 consistent matches and sit at")
    print("the inf sentinel.")


if __name__ == "__main__":
    main()
