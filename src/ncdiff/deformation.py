"""Deformation-limit experiments: inner-derivation finite differences vs
classical derivatives.

Each sweep drives a one-parameter family of presentations toward the
commutative limit, measures the coefficientwise gap between the scaled
commutator and its classical target on normal-ordered output, and fits the
convergence order as the log-log slope over a descending geometric
parameter sequence.  Also houses the three canonical derivations of the
Heisenberg generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .carrier import commutator
from .qlattice import (QElement, heisenberg_spec, torus_spec_2n,
                       weyl_lattice_spec)

TWO_PI_I = 2j * math.pi


@dataclass
class DeformationSweep:
    """Record of a limit experiment.

    ``values`` must be positive and strictly decreasing; ``errors`` are the
    max coefficient deviations from the classical target; ``fitted_order``
    is the log-log least-squares slope (NaN when an error vanishes).
    """
    parameter_name: str
    values: list
    errors: list
    target_description: str
    fitted_order: float = field(init=False)

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep needs at least one parameter value")
        if any(v <= 0 for v in self.values):
            raise ValueError("parameter values must be positive")
        if any(a <= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("parameter values must be strictly decreasing")
        if len(self.errors) != len(self.values):
            raise ValueError("one error per parameter value")
        if any(not np.isfinite(e) for e in self.errors):
            raise ValueError("errors must be finite")
        self.fitted_order = self._fit()

    def _fit(self) -> float:
        if len(self.values) < 2 or any(e <= 0 for e in self.errors):
            return float("nan")
        slope = np.polyfit(np.log(self.values), np.log(self.errors), 1)[0]
        return float(slope)

    def halving_ratio(self) -> float:
        """errors[-1] / errors[-2]; 0.5 signals clean first-order decay."""
        if len(self.errors) < 2 or self.errors[-2] == 0:
            return float("nan")
        return self.errors[-1] / self.errors[-2]

    def to_csv(self) -> str:
        lines = ["parameter,error"]
        lines += [f"{v!r},{e!r}" for v, e in zip(self.values, self.errors)]
        return "\n".join(lines) + "\n"

    def summary_json(self) -> dict:
        """Strict-JSON summary: a NaN ``fitted_order`` becomes ``None``."""
        return {"fitted_order": None if math.isnan(self.fitted_order) else self.fitted_order,
                "target_description": self.target_description}


def _embed_even(mono, n: int) -> tuple:
    """Exponents over the commutative generators into the full 2n tuple."""
    full = [0] * (2 * n)
    for j, m in enumerate(mono):
        full[2 * j + 1] = m
    return tuple(full)


def torus_limit_sweep(coeffs: Mapping[tuple, complex],
                      thetas: Sequence[float]) -> DeformationSweep:
    """Finite difference vs derivative on the commutative torus directions.

    ``coeffs`` is a trigonometric polynomial over the even-slot generators:
    keys are exponent tuples (m_1..m_n).  Per theta the 2n-generator
    presentation is built with every block angle theta and the derivative
    basis theta^{-1} U_{2j-1}; the classical target multiplies each
    coefficient by i*m_j in direction j.
    """
    if not thetas:
        raise ValueError("empty parameter list")
    monos = list(coeffs)
    if not monos:
        raise ValueError("empty coefficient table")
    n = len(monos[0])
    errors = []
    for theta in thetas:
        spec = torus_spec_2n([theta] * n)
        f = QElement(spec, {_embed_even(m, n): c for m, c in coeffs.items()})
        worst = 0.0
        for j in range(n):
            Uj = QElement.generator(spec, 2 * j + 1)
            g = commutator(Uj, f).scale(1.0 / theta)
            target = QElement(spec, {
                tuple(x + (1 if i == 2 * j else 0) for i, x in enumerate(_embed_even(m, n))):
                1j * m[j] * c
                for m, c in coeffs.items()})
            worst = max(worst, (g - target).norm())
        errors.append(worst)
    return DeformationSweep("theta", list(thetas), errors,
                            "coefficientwise i*m_j per direction")


def plane_limit_sweep(k: tuple[int, int], coeffs: Mapping[tuple, complex],
                      hbars: Sequence[float], step: float = 1.0) -> DeformationSweep:
    """Scaled Weyl commutator (1/hbar)[A^{k1} B^{k2}, f] against its limit.

    ``coeffs`` maps lattice points (t1, t2) to Fourier weights; the target
    coefficient at exponent t+k is i*step^2*(k1 t2 - k2 t1) times the weight.
    """
    if not hbars:
        raise ValueError("empty parameter list")
    k1, k2 = k
    errors = []
    for hbar in hbars:
        spec = weyl_lattice_spec(hbar, pairs=1, step=step)
        f = QElement(spec, dict(coeffs))
        x = QElement.monomial(spec, (k1, k2))
        g = commutator(x, f).scale(1.0 / hbar)
        target = QElement(spec, {
            (t[0] + k1, t[1] + k2): 1j * step * step * (k1 * t[1] - k2 * t[0]) * c
            for t, c in coeffs.items()})
        errors.append((g - target).norm())
    return DeformationSweep("hbar", list(hbars), errors,
                            "coefficientwise i*step^2*(k1 t2 - k2 t1)")


def plane_partial_sweep(coeffs: Mapping[tuple, complex], hbars: Sequence[float],
                        step: float = 1.0) -> DeformationSweep:
    """Unstarred derivative on position-only data against the gradient.

    ``coeffs`` maps position-lattice exponents (t_1..t_n) to weights; the
    momentum-direction basis hbar^{-1} A_j drives each direction to
    i*step^2*t_j in the limit.
    """
    if not hbars:
        raise ValueError("empty parameter list")
    monos = list(coeffs)
    if not monos:
        raise ValueError("empty coefficient table")
    n = len(monos[0])
    errors = []
    for hbar in hbars:
        spec = weyl_lattice_spec(hbar, pairs=n, step=step)
        f = QElement(spec, {_embed_even(t, n): c for t, c in coeffs.items()})
        worst = 0.0
        for j in range(n):
            Aj = QElement.generator(spec, 2 * j + 1)
            g = commutator(Aj, f).scale(1.0 / hbar)
            target = QElement(spec, {
                tuple(x + (1 if i == 2 * j else 0) for i, x in enumerate(_embed_even(t, n))):
                1j * step * step * t[j] * c
                for t, c in coeffs.items()})
            worst = max(worst, (g - target).norm())
        errors.append(worst)
    return DeformationSweep("hbar", list(hbars), errors,
                            "coefficientwise i*step^2*t_j per direction")


_HEISENBERG_DIRECTIONS = ("U", "V", "W")


def heisenberg_limit_sweep(direction: str, exponents: tuple[int, int, int],
                           hbars: Sequence[float], mu: float,
                           nu: float) -> DeformationSweep:
    """(1/hbar)[G, U^m V^n W^k] against its commutative limit.

    Targets: direction W multiplies by 4*pi*i*(m*mu + n*nu) and raises the
    W power; directions U and V multiply by -4*pi*i*k*mu resp. -4*pi*i*k*nu
    and raise their own power.
    """
    if direction not in _HEISENBERG_DIRECTIONS:
        raise ValueError(f"direction must be one of {_HEISENBERG_DIRECTIONS}")
    if not hbars:
        raise ValueError("empty parameter list")
    m, n, k = exponents
    errors = []
    for hbar in hbars:
        spec = heisenberg_spec(mu, nu, hbar=hbar)
        mono = QElement.monomial(spec, (m, n, k))
        gi = _HEISENBERG_DIRECTIONS.index(direction)
        G = QElement.generator(spec, gi + 1)
        g = commutator(G, mono).scale(1.0 / hbar)
        if direction == "W":
            factor = 4j * math.pi * (m * mu + n * nu)
            out_e = (m, n, k + 1)
        elif direction == "U":
            factor = -4j * math.pi * k * mu
            out_e = (m + 1, n, k)
        else:
            factor = -4j * math.pi * k * nu
            out_e = (m, n + 1, k)
        target = QElement(spec, {out_e: factor})
        errors.append((g - target).norm())
    return DeformationSweep("hbar", list(hbars), errors,
                            f"direction {direction}: coefficientwise limit factor")


# -- canonical derivations ---------------------------------------------------

def extend_derivation(images: Sequence[QElement], x: QElement) -> QElement:
    """Extend generator images to a derivation of the whole algebra.

    ``images[i]`` is D(U_{i+1}); monomials expand factor by factor with the
    product rule, inverse powers through D(g^{-1}) = -g^{-1} D(g) g^{-1}.
    """
    spec = x.spec
    m = spec.generator_count
    if len(images) != m:
        raise ValueError("one image per generator")
    zero = QElement.zero(spec)

    def unit(i, p):
        t = [0] * m
        t[i] = p
        return tuple(t)

    def power_image(i: int, e: int) -> QElement:
        dg = images[i]
        out = zero
        if e >= 0:
            for j in range(e):
                out = out + QElement.monomial(spec, unit(i, j)) * dg \
                    * QElement.monomial(spec, unit(i, e - 1 - j))
        else:
            for j in range(-e):
                out = out - QElement.monomial(spec, unit(i, -(j + 1))) * dg \
                    * QElement.monomial(spec, unit(i, e + j))
        return out

    result = zero
    for e, c in x.terms.items():
        for i in range(m):
            if e[i] == 0:
                continue
            prefix = QElement.monomial(spec, tuple(v if j < i else 0 for j, v in enumerate(e)))
            suffix = QElement.monomial(spec, tuple(v if j > i else 0 for j, v in enumerate(e)))
            result = result + (prefix * power_image(i, e[i]) * suffix).scale(c)
    return result


def heisenberg_d1_image(spec, K: int, variant: str = "paper") -> QElement:
    """Image of W under the x-direction derivation, truncated Fourier tail.

    The printed series is sum_{0<|l|<=K} (c/l) V^l W; the ``derived``
    variant adds the -pi*i*c*W mean term coming from the sawtooth expansion
    {y} = 1/2 - sum_{l != 0} e^{2 pi i l y} / (2 pi i l).
    """
    if K < 1:
        raise ValueError("series truncation K must be >= 1")
    if variant not in ("paper", "derived"):
        raise ValueError("variant must be 'paper' or 'derived'")
    c = spec.meta.get("c", 1.0)
    terms: dict = {}
    for l in range(-K, K + 1):
        if l == 0:
            continue
        terms[(0, l, 1)] = c / l
    if variant == "derived":
        terms[(0, 0, 1)] = terms.get((0, 0, 1), 0j) - 1j * math.pi * c
    return QElement(spec, terms)


def heisenberg_derivations(x: QElement, K: int, variant: str = "paper"):
    """The three canonical derivations (D1 x, D2 x, D3 x) of the Heisenberg algebra.

    D1 U = 2 pi i U, D1 V = 0, D1 W = the truncated series; D2 is diagonal
    with eigenvalue 2 pi i n, D3 with 2 pi i c k on U^m V^n W^k.  ``K``
    truncates the D1 series and must be >= 1 whenever x involves W.
    """
    spec = x.spec
    if spec.generator_count != 3:
        raise ValueError("expected a three-generator Heisenberg presentation")
    c = spec.meta.get("c", 1.0)
    involves_w = any(e[2] != 0 for e in x.terms)
    if involves_w and K < 1:
        raise ValueError("K must be >= 1 when the element involves W")
    zero = QElement.zero(spec)
    d1_images = [
        QElement.monomial(spec, (1, 0, 0), TWO_PI_I),
        zero,
        heisenberg_d1_image(spec, max(K, 1), variant) if involves_w else zero,
    ]
    d1 = extend_derivation(d1_images, x)
    d2 = x._like({e: TWO_PI_I * e[1] * v for e, v in x.terms.items()})
    d3 = x._like({e: TWO_PI_I * c * e[2] * v for e, v in x.terms.items()})
    return d1, d2, d3
