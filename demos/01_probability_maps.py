"""From raw logits to a balanced sampling distribution.

A hand-built light-sensitive scoremap over one toy image walks through the
stages the sampler applies in training: softmax over the whole grid, a
smoothed density estimate, and the inverse-sqrt density balance that stops
crowded regions from eating the entire keypoint budget.
"""

import numpy as np

from dadkit.core import gaussian_blur, softmax_2d
from dadkit.sampler import kde_balance
from dadkit.synth import SceneConfig, gen_toy_pair

GLYPHS = " .:-=+*#%@"


def heat(grid, cell: int = 2) -> str:
    """Coarse ASCII heatmap: block-average, then ten glyph levels."""
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    g = g[: h - h % cell, : w - w % cell]
    g = g.reshape(h // cell, cell, w // cell, cell).mean(axis=(1, 3))
    lo, hi = float(g.min()), float(g.max())
    norm = (g - lo) / (hi - lo) if hi > lo else np.zeros_like(g)
    idx = np.minimum((norm * len(GLYPHS)).astype(int), len(GLYPHS) - 1)
    return "\n".join("".join(GLYPHS[i] for i in row) for row in idx)


def main() -> None:
    cfg = SceneConfig.toy(size=48, num_light=6, num_dark=6)
    pair = gen_toy_pair(np.random.default_rng(7), cfg)
    img = pair.image_a

    print("toy image (6 light dots, 6 dark dots on gray):")
    print(heat(img))

    # a fixed "light detector": logits grow with brightness
    logits = 16.0 * (img - 0.5)
    p = softmax_2d(logits)
    print("\nsoftmax of 16*(image - 0.5), i.e. a hand-built light detector:")
    print(heat(p))

    light_xy = [xy for xy, lab in zip(pair.gt_keypoints_a.xy, pair.polarity_a)
                if lab == "light"]
    mass_on_dots = sum(p[int(y), int(x)] for x, y in light_xy)
    print(f"\nprobability mass sitting exactly on the 6 light dots: {mass_on_dots:.3f}")

    # crowding: compare the most and least isolated light dot
    d = np.array([[np.hypot(ax - bx, ay - by) for bx, by in light_xy]
                  for ax, ay in light_xy])
    np.fill_diagonal(d, np.inf)
    crowded = int(np.argmin(d.min(axis=1)))
    lonely = int(np.argmax(d.min(axis=1)))
    # a kernel on the scale of the dot spacing, so crowding is visible
    sigma = 0.15 * min(img.shape)
    density = gaussian_blur(p, sigma)
    balanced = kde_balance(p, sigma)

    def at(grid, i):
        x, y = light_xy[i]
        return grid[int(y), int(x)]

    print(f"\ncrowded dot (nearest neighbor {d.min(axis=1)[crowded]:.1f}px) "
          f"vs lonely dot ({d.min(axis=1)[lonely]:.1f}px):")
    print(f"  raw probability   {at(p, crowded):.4f}  vs  {at(p, lonely):.4f}")
    print(f"  local density     {at(density, crowded):.2e}  vs  {at(density, lonely):.2e}")
    print(f"  balanced score    {at(balanced, crowded):.2f}  vs  {at(balanced, lonely):.2f}")
    print("\nequal logits gave equal probabilities, but dividing by the square")
    print("root of the smoothed density ranks the lonely dot above the crowded")
    print("one, which is what keeps a top-K budget spread over the image.")


if __name__ == "__main__":
    main()
