"""Top-K selection with and without density balancing.

A scoremap with a dense 3x3 grid of strong peaks and one slightly weaker
isolated peak makes the failure mode obvious: plain top-K spends the whole
budget inside the cluster, the balanced sampler reaches the lone peak too.
"""

import numpy as np

from dadkit.sampler import SamplerConfig, sample_keypoints

GLYPHS = " .:-=+*#%@"


def heat_with_marks(grid, marks) -> str:
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = float(g.min()), float(g.max())
    norm = (g - lo) / (hi - lo) if hi > lo else np.zeros_like(g)
    idx = np.minimum((norm * len(GLYPHS)).astype(int), len(GLYPHS) - 1)
    rows = [[GLYPHS[i] for i in row] for row in idx]
    for x, y in marks:
        rows[int(round(y))][int(round(x))] = "K"
    return "\n".join("".join(r) for r in rows)


def main() -> None:
    z = np.zeros((32, 32))
    for i in range(3):
        for j in range(3):
            z[8 + 3 * i, 8 + 3 * j] = 6.0  # dense cluster, logit 6
    z[26, 26] = 5.5  # isolated peak, slightly weaker

    off = sample_keypoints(z, SamplerConfig(k=4, use_kde=False), "train")
    on = sample_keypoints(z, SamplerConfig(k=4, use_kde=True, kde_sigma_frac=0.15), "train")

    print("budget k=4, no balancing (K marks a selected keypoint):")
    print(heat_with_marks(z, off.xy))
    print("\nsame budget with KDE balancing:")
    print(heat_with_marks(z, on.xy))

    def near_isolated(kps):
        xy = kps.xy
        return int(np.sum(np.hypot(xy[:, 0] - 26, xy[:, 1] - 26) < 3))

    print(f"\nkeypoints near the isolated peak: {near_isolated(off)} without "
          f"balancing, {near_isolated(on)} with it.")
    print("every selection is still an NMS survivor; balancing only reorders")
    print("the survivors by dividing each score by sqrt(local density).")


if __name__ == "__main__":
    main()
