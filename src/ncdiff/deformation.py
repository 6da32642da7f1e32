"""Deformation-limit experiments: inner-derivation finite differences vs
classical derivatives.

Each sweep drives a one-parameter family of presentations toward the
commutative limit and fits the convergence order as the log-log slope over
a descending geometric parameter sequence.  All four sweeps run one loop,
:func:`_limit_sweep`: a family gives ``cases(p)``, the ``(x, f, target)``
triples at parameter p, and the error at p is the largest coefficientwise
gap |(1/p)[x, f] - target| over them.  A nan gap stays nan in that fold and
:class:`DeformationSweep` rejects it, so an overflowing angle is an error,
never a zero.  Also houses the three canonical derivations of the
Heisenberg generators.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .carrier import _new_tuple, _Node, commutator, largest
from .qlattice import QElement, heisenberg_spec, weyl_lattice_spec

TWO_PI_I = 2j * math.pi


def _check_parameters(values: Sequence[float]) -> None:
    """A sweep's parameters must be nonempty, finite, positive and strictly
    decreasing; checked before any sweep divides by them."""
    if not values:
        raise ValueError("sweep needs at least one parameter value")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("parameter values must be finite")
    if any(v <= 0 for v in values):
        raise ValueError("parameter values must be positive")
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError("parameter values must be strictly decreasing")


class DeformationSweep(_Node):
    """Record of a limit experiment.

    ``values`` must be finite, positive and strictly decreasing; ``errors``
    are the finite max coefficient deviations from the classical target;
    ``fitted_order`` is the log-log least-squares slope (NaN when an error vanishes).
    """

    def __new__(cls, parameter_name: str, values: list, errors: list,
                target_description: str):
        _check_parameters(values)
        if len(errors) != len(values):
            raise ValueError("one error per parameter value")
        if any(not np.isfinite(e) for e in errors):
            raise ValueError("errors must be finite")
        return _new_tuple(cls, (cls, parameter_name, values, errors, target_description))

    @property
    def fitted_order(self) -> float:
        if len(self.values) < 2 or any(e <= 0 for e in self.errors):
            return float("nan")
        return float(np.polyfit(np.log(self.values), np.log(self.errors), 1)[0])

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
        order = self.fitted_order
        return {"fitted_order": None if math.isnan(order) else order,
                "target_description": self.target_description}


def _limit_sweep(name: str, params, description: str, cases) -> DeformationSweep:
    """The sweep of every family; see the module docstring."""
    _check_parameters(params)
    errors = [largest((commutator(x, f).scale(1.0 / p) - target).norm()
                      for x, f, target in cases(p))
              for p in params]
    return DeformationSweep(name, list(params), errors, description)


def _weyl_sweep(directions, coeffs, hbars, step, name, description) -> DeformationSweep:
    """(1/hbar)[A^k, f] against i*step^2*omega(k, t)*c at t + k, per direction k: k and the
    keys t of ``coeffs`` are exponents of all 2n Weyl generators, and omega(k, t) =
    sum_j (k_{2j-1} t_{2j} - k_{2j} t_{2j-1}) is their symplectic pairing, in integers."""
    def cases(hbar):
        if not coeffs:
            raise ValueError("empty coefficient table")
        spec = weyl_lattice_spec(hbar, pairs=len(next(iter(coeffs))) // 2, step=step)
        f = QElement(spec, dict(coeffs))
        return [(QElement.monomial(spec, k), f, QElement(spec, {
            tuple(a + b for a, b in zip(t, k)):
                1j * step * step * sum(k[i] * t[i + 1] - k[i + 1] * t[i]
                                       for i in range(0, len(k), 2)) * c
            for t, c in coeffs.items()})) for k in directions]

    return _limit_sweep(name, hbars, description, cases)


def _momentum_data(coeffs):
    """Every momentum direction, and ``coeffs`` moved onto the position slots."""
    n = len(next(iter(coeffs), ()))
    return ([tuple(int(i == 2 * j) for i in range(2 * n)) for j in range(n)],
            {tuple(x for m in t for x in (0, m)): c for t, c in coeffs.items()})


def torus_limit_sweep(coeffs: Mapping[tuple, complex],
                      thetas: Sequence[float]) -> DeformationSweep:
    """Finite difference vs derivative on the commutative torus directions.

    ``coeffs`` is a trigonometric polynomial over the even-slot generators:
    keys are exponent tuples (m_1..m_n).  This is :func:`plane_partial_sweep`
    at step 1 with theta for hbar: every block angle is theta, the basis is
    theta^{-1} U_{2j-1}, and the target multiplies each coefficient by i*m_j.
    """
    return _weyl_sweep(*_momentum_data(coeffs), thetas, 1.0, "theta",
                       "coefficientwise i*m_j per direction")


def plane_limit_sweep(k: tuple[int, int], coeffs: Mapping[tuple, complex],
                      hbars: Sequence[float], step: float = 1.0) -> DeformationSweep:
    """Scaled Weyl commutator (1/hbar)[A^{k1} B^{k2}, f] against its limit.

    ``coeffs`` maps lattice points (t1, t2) to Fourier weights; the target
    coefficient at exponent t+k is i*step^2*(k1 t2 - k2 t1) times the weight.
    """
    return _weyl_sweep([k], coeffs, hbars, step, "hbar",
                       "coefficientwise i*step^2*(k1 t2 - k2 t1)")


def plane_partial_sweep(coeffs: Mapping[tuple, complex], hbars: Sequence[float],
                        step: float = 1.0) -> DeformationSweep:
    """Unstarred derivative on position-only data against the gradient.

    ``coeffs`` maps position-lattice exponents (t_1..t_n) to weights; the
    momentum-direction basis hbar^{-1} A_j drives each direction to
    i*step^2*t_j in the limit.
    """
    return _weyl_sweep(*_momentum_data(coeffs), hbars, step, "hbar",
                       "coefficientwise i*step^2*t_j per direction")


# Direction -> (generator G, the limit of (1/hbar)[G, U^m V^n W^k] as {exponent: factor}).
_HEISENBERG_LIMITS = {
    "U": (1, lambda m, n, k, mu, nu: {(m + 1, n, k): -4j * math.pi * k * mu}),
    "V": (2, lambda m, n, k, mu, nu: {(m, n + 1, k): -4j * math.pi * k * nu}),
    "W": (3, lambda m, n, k, mu, nu: {(m, n, k + 1): 4j * math.pi * (m * mu + n * nu)}),
}


def heisenberg_limit_sweep(direction: str, exponents: tuple[int, int, int],
                           hbars: Sequence[float], mu: float,
                           nu: float) -> DeformationSweep:
    """(1/hbar)[G, U^m V^n W^k] against its commutative limit.

    Targets: direction W multiplies by 4*pi*i*(m*mu + n*nu) and raises the
    W power; directions U and V multiply by -4*pi*i*k*mu resp. -4*pi*i*k*nu
    and raise their own power.
    """
    if direction not in _HEISENBERG_LIMITS:
        raise ValueError(f"direction must be one of {tuple(_HEISENBERG_LIMITS)}")
    generator, limit = _HEISENBERG_LIMITS[direction]

    def cases(hbar):
        spec = heisenberg_spec(mu, nu, hbar=hbar)
        x = QElement.monomial(spec, exponents)  # raises on a wrong arity
        m, n, k = exponents
        return [(QElement.generator(spec, generator), x, QElement(spec, limit(m, n, k, mu, nu)))]

    return _limit_sweep("hbar", hbars, f"direction {direction}: coefficientwise limit factor",
                        cases)


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
