#!/usr/bin/env python3
"""Elliptic orbit walkthrough for the rank-two unitary pair.

Builds the (2,1) pair, runs the orbit through both measure syntheses,
and prints the fixed-point data, the reduced density on a small grid,
and the symbolic transform against its numeric re-integration. Exits 1
if the symbolic and mapped transforms, or the full-measure transform and
the fixed-point sum, differ by more than TOL relative.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from dhmeasure import conespline, hermitian, localize, oracle

TOL = 1e-9


def main():
    pair = hermitian.build_pair("AIII", (2, 1))
    spec = hermitian.orbit_spec(pair, (3, 1, -4))
    om = hermitian.orbit_model(spec)

    print(f"pair AIII(2,1): rank {pair.rank}, compact roots {pair.k}, "
          f"noncompact {len(pair.noncompact)}")
    print(f"lambda (native) = {spec.lam_native}, measure coords = {spec.lam}")
    for (label, pv), p in zip(om.wall_values, om.model.points):
        print(f"  {label}: image {p.image}, wall value {pv}")

    St = hermitian.t_type_measure(spec)
    Sk = hermitian.k_type_measure(spec)
    print(f"\nfull-torus terms: {len(St.terms)}; reduced terms: {len(Sk.terms)}; "
          f"reduced multiplier: {Sk.poly.to_json() if Sk.poly else None}")

    ev = conespline.DensityEvaluator(Sk)
    print("\nreduced density (rows mu_1, cols mu_2):")
    m2s = np.linspace(4.0, 9.0, 6)
    print("        " + "".join(f"{m2:8.2f}" for m2 in m2s))
    for m1 in np.linspace(-2.0, 3.0, 6):
        row = [ev((float(m1), float(m2))) for m2 in m2s]
        row = [0.0 if abs(v) < 1e-12 else v for v in row]
        print(f"{m1:+6.2f}  " + "".join(f"{v:8.4f}" for v in row))

    rng = np.random.default_rng(0)
    center = np.array([float(x) for x in pair.center_vector])
    print("\nsymbolic vs numeric transform:")
    worst = 0.0
    for _ in range(4):
        im = center * rng.uniform(1.1, 1.7)
        zeta = tuple(
            complex(r, i) for r, i in zip(rng.uniform(-1, 1, 2), im)
        )
        sym = hermitian.laplace_nu_symbolic(spec, zeta)
        num, _ = oracle.numeric_laplace_spline(Sk, zeta, method="mapped")
        rel = abs(num - sym) / abs(sym)
        worst = max(worst, rel)
        print(f"  zeta={tuple(f'{z:.3f}' for z in zeta)}  "
              f"sym={sym:.6e}  rel diff={rel:.2e}")

    region = localize.gamma_region(om.model, om.chamber)
    zeta = (0.3 + 1.2j, -0.2 + 1.5j)
    loc = localize.localization_sum(om.model, zeta, region)
    closed = conespline.spline_laplace(St, zeta)
    full_rel = abs(loc - closed) / abs(loc)
    print(f"\nfull-measure transform vs fixed-point sum: "
          f"|diff| = {abs(loc - closed):.2e}, rel {full_rel:.2e}")
    if worst > TOL or full_rel > TOL:
        print(f"FAIL: a transform check exceeds {TOL:g} relative")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
