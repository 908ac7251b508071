"""Exponential-rational algebra with exact Gaussian-rational coefficients.

The reference against which the tests check the compiled reduced transform
(hermitian._compile_transform): sums of c * e^{i<mu, zeta>} / prod
ell_j(zeta)^{m_j}, built and differentiated term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dhmeasure.conespline import CompiledTransform, _evaluate, _float_forms
from dhmeasure.rational import ZERO, rat, vdot, vec


def exact_float(x) -> float:
    """The correctly rounded float of an exact rational on either backend:
    one int true division (float() of an mpq need not round to nearest)."""
    return int(x.numerator) / int(x.denominator)


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@dataclass(frozen=True)
class ExpRationalSum:
    """Sum of c * e^{i<mu, zeta>} / prod ell_j(zeta)^{m_j} terms.

    Coefficients are exact Gaussian rationals (re, im); exponents mu and
    denominator forms ell are rational covectors. Terms with equal
    (exponent, denominator multiset) merge on construction and exact-zero
    coefficients are pruned, which keeps repeated differentiation compact.
    """

    dim: int
    terms: tuple  # of (coeff (re, im), exponent tuple, denom tuple of (form, mult))

    @staticmethod
    def build(dim, raw_terms) -> "ExpRationalSum":
        acc = {}
        for coeff, expo, denom in raw_terms:
            coeff = (rat(coeff[0]), rat(coeff[1]))
            expo = vec(expo)
            denom = tuple(sorted((vec(f), int(m)) for f, m in denom))
            key = (expo, denom)
            acc[key] = _gadd(acc.get(key, (ZERO, ZERO)), coeff)
        terms = tuple(
            (c, e, dnm)
            for (e, dnm), c in sorted(acc.items())
            if not (c[0] == 0 and c[1] == 0)
        )
        return ExpRationalSum(dim, terms)

    def d_dir(self, xi) -> "ExpRationalSum":
        """Plain directional derivative in zeta along xi."""
        xi = vec(xi)
        out = []
        for coeff, expo, denom in self.terms:
            pairing = vdot(expo, xi)  # d/dt e^{i<mu, zeta + t xi>} = i<mu,xi> e
            out.append((_gmul(coeff, (ZERO, pairing)), expo, denom))
            for j, (form, mult) in enumerate(denom):
                fxi = vdot(form, xi)
                if fxi == 0:
                    continue
                bumped = list(denom)
                bumped[j] = (form, mult + 1)
                out.append(
                    ((coeff[0] * (-mult) * fxi, coeff[1] * (-mult) * fxi),
                     expo,
                     tuple(bumped))
                )
        return ExpRationalSum.build(self.dim, out)

    @cached_property
    def _float_terms(self) -> CompiledTransform:
        exponents, powers, out = {}, {}, []
        for coeff, expo, denom in self.terms:
            forms = _float_forms(form for form, _ in denom)
            e = exponents.setdefault(tuple(exact_float(x) for x in expo), len(exponents))
            indices = tuple(powers.setdefault((f, n, mult), len(powers))
                            for (f, n), (_, mult) in zip(forms, denom))
            out.append((complex(exact_float(coeff[0]), exact_float(coeff[1])), e, indices))
        return CompiledTransform(tuple(exponents), tuple(powers), tuple(out))

    def evaluate(self, zeta) -> complex:
        return _evaluate(self._float_terms, zeta)
