#!/usr/bin/env python3
"""Flat density on the two-point model and its real-limit transform.

Synthesizes the pushforward measure of the height function on a round
two-point model, confirms the density is the flat indicator of the
interval, and compares the transform on the real axis against the
closed form 2 sin(z L) / z.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from dhmeasure import conespline, localize, verify


def main():
    lam = 2
    M = verify.sphere_model(lam)
    S = localize.dh_measure(M, (1,))

    print(f"two-point model, images +-{lam}")
    print(f"terms: {[(t.sign, t.base, t.factors) for t in S.terms]}")

    grid = np.linspace(-3.0, 3.0, 13)
    print("\n   mu    density")
    for t in grid:
        dv = conespline.spline_density(S, (float(t),))
        print(f"{t:+6.2f}   {float(dv.value):.12f}")

    print("\n   z      transform        2 sin(zL)/z     |diff|")
    worst = 0.0
    for z in np.linspace(0.25, 4.0, 10):
        got = conespline.spline_laplace(S, (complex(z, 0.0),), strict=False)
        want = 2.0 * np.sin(z * lam) / z
        worst = max(worst, abs(got - want))
        print(f"{z:5.2f}   {got.real:+.10f}   {want:+.10f}   {abs(got - want):.2e}")
    print(f"\nworst deviation {worst:.3e}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    raise SystemExit(main())
