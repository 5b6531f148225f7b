"""How two detectors' probability maps should be merged.

Two unimodal keypoint functions stand in for a light and a dark detector
firing near each other. Averaging their maps can slide the peaks together
and even invent a brand-new maximum between them; the pointwise maximum
provably never creates a maximum that neither component had, and for
"partner" bumps it keeps exactly both modes. The same rule powers the
r=inf distillation target.
"""

import numpy as np

from dadkit.distill import (check_partner_merge, distill_target,
                            generalized_mean, local_maxima, make_bump)


def show(name: str, grid) -> None:
    peaks = sorted(local_maxima(grid))
    vals = ", ".join(f"{grid[p]:.3f}@{p}" for p in peaks)
    print(f"  {name:<18} maxima {vals}")


def main() -> None:
    shape = (20, 20)
    f = make_bump(shape, cx=7.0, cy=10.0, radius=5.0, height=1.0)
    g = make_bump(shape, cx=11.0, cy=10.0, radius=5.0, height=0.8)
    print(f"two overlapping bumps, modes {f.mode} and {g.mode}, "
          f"verdict: {check_partner_merge(f, g)!r}")
    show("f", f.values)
    show("g", g.values)
    show("mean (f+g)/2", 0.5 * (f.values + g.values))
    show("pointwise max", np.maximum(f.values, g.values))
    print("the mean fused both peaks into one new location; the max kept")
    print("each detector's own mode, which is the merge theorems' promise.\n")

    # a dominated bump disappears under max, as it should
    small = make_bump(shape, cx=8.0, cy=10.0, radius=3.0, height=0.3)
    print(f"small bump inside f, verdict: {check_partner_merge(f, small)!r}")
    show("pointwise max", np.maximum(f.values, small.values))
    print("a detector that is strictly less confident everywhere near its")
    print("own mode contributes nothing to the merged map.\n")

    # the distillation target is the renormalized generalized mean
    p_light = f.values / f.values.sum()
    p_dark = g.values / g.values.sum()
    print("distillation target mass at each teacher's mode:")
    for r in (1, 2, np.inf):
        t = distill_target(p_light, p_dark, r)
        m = generalized_mean(p_light, p_dark, r)
        print(f"  r={r!s:<4} modes {len(local_maxima(m))}  "
              f"target@f.mode {t[f.mode]:.4f}  "
              f"target@g.mode {t[g.mode]:.4f}")
    print("r=1 blends the teachers into a single mode; raising r separates")
    print("them again, and r=inf is the pointwise max, the one rule that")
    print("provably never invents a maximum neither teacher had.")


if __name__ == "__main__":
    main()
