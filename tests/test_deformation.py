import cmath
import itertools
import math

import pytest

import ncdiff.deformation as DF
from ncdiff.qlattice import QElement
from ncdiff.testing import random_qelement

from conftest import MU, NU

PARAMS = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


def torus_oracle(coeffs, theta):
    """Direct scalar evaluation of the finite-difference defect."""
    worst = 0.0
    for mono, c in coeffs.items():
        for m in mono:
            worst = max(worst, abs(c) * abs((cmath.exp(1j * m * theta) - 1) / theta - 1j * m))
    return worst


def test_torus_sweep_against_oracle():
    coeffs = {(1,): 1.0}
    sweep = DF.torus_limit_sweep(coeffs, PARAMS)
    for theta, err in zip(PARAMS, sweep.errors):
        assert abs(err - torus_oracle(coeffs, theta)) < 1e-12
    # Taylor size: ~ m^2 theta / 2 at m = 1
    assert abs(sweep.errors[0] - 0.005) < 2e-4
    assert abs(sweep.fitted_order - 1.0) <= 0.1
    assert 0.45 <= sweep.halving_ratio() <= 0.55


def test_torus_sweep_multidirection():
    coeffs = {(2, 1): 1.0, (0, 3): 0.5 - 0.5j}
    sweep = DF.torus_limit_sweep(coeffs, PARAMS)
    for theta, err in zip(PARAMS, sweep.errors):
        assert abs(err - torus_oracle(coeffs, theta)) < 1e-12
    assert abs(sweep.fitted_order - 1.0) <= 0.1


def test_torus_sweep_constant_is_exact():
    sweep = DF.torus_limit_sweep({(0,): 1.0}, PARAMS)
    assert sweep.errors == [0.0] * 4
    assert math.isnan(sweep.fitted_order)


def test_torus_sweep_empty_params():
    with pytest.raises(ValueError):
        DF.torus_limit_sweep({(1,): 1.0}, [])


def plane_oracle(k, coeffs, hbar, step):
    k1, k2 = k
    worst = 0.0
    for (t1, t2), c in coeffs.items():
        s2 = step * step
        actual = (cmath.exp(-1j * hbar * s2 * k2 * t1)
                  - cmath.exp(-1j * hbar * s2 * t2 * k1)) / hbar
        target = 1j * s2 * (k1 * t2 - k2 * t1)
        worst = max(worst, abs(c) * abs(actual - target))
    return worst


def test_plane_sweep_against_oracle():
    coeffs = {(0, 1): 1.0}
    sweep = DF.plane_limit_sweep((1, 0), coeffs, PARAMS)
    for hbar, err in zip(PARAMS, sweep.errors):
        assert abs(err - plane_oracle((1, 0), coeffs, hbar, 1.0)) < 1e-12
    assert abs(sweep.errors[0] - 0.005) < 2e-4
    assert abs(sweep.fitted_order - 1.0) <= 0.1
    assert 0.45 <= sweep.halving_ratio() <= 0.55


def test_plane_sweep_mixed_support_and_step():
    coeffs = {(0, 1): 1.0, (2, 5): 0.25, (1, -3): -1j}
    for step in (1.0, 0.5):
        sweep = DF.plane_limit_sweep((2, 1), coeffs, PARAMS, step=step)
        for hbar, err in zip(PARAMS, sweep.errors):
            assert abs(err - plane_oracle((2, 1), coeffs, hbar, step)) < 1e-12
        assert abs(sweep.fitted_order - 1.0) <= 0.1


def test_plane_parallel_data_commutes():
    # k parallel to t: the exponents commute exactly, all errors vanish
    sweep = DF.plane_limit_sweep((2, 4), {(1, 2): 1.0}, PARAMS)
    assert sweep.errors == [0.0] * 4


def test_plane_partial_sweep():
    coeffs = {(1, 2): 1.0, (3, 0): 0.5}
    sweep = DF.plane_partial_sweep(coeffs, PARAMS)
    for hbar, err in zip(PARAMS, sweep.errors):
        worst = 0.0
        for t, c in coeffs.items():
            for tj in t:
                worst = max(worst, abs(c) * abs((1 - cmath.exp(-1j * tj * hbar)) / hbar
                                                - 1j * tj))
        assert abs(err - worst) < 1e-12
    assert abs(sweep.fitted_order - 1.0) <= 0.1


def heisenberg_oracle(direction, exponents, hbar, mu, nu):
    m, n, k = exponents
    if direction == "W":
        phi = 4 * math.pi * hbar * (m * mu + n * nu)
        target = 4j * math.pi * (m * mu + n * nu)
        actual = (cmath.exp(1j * phi) - 1) / hbar
    elif direction == "U":
        phi = 4 * math.pi * hbar * mu * k
        target = -4j * math.pi * mu * k
        actual = (1 - cmath.exp(1j * phi)) / hbar
    else:
        phi = 4 * math.pi * hbar * nu * k
        target = -4j * math.pi * nu * k
        actual = (1 - cmath.exp(1j * phi)) / hbar
    return abs(actual - target)


@pytest.mark.parametrize("direction,exponents", [
    ("W", (1, 0, 0)), ("W", (5, 3, 2)), ("U", (0, 1, 2)),
    ("U", (4, 0, 5)), ("V", (1, 0, 3)), ("V", (0, 5, 5)),
])
def test_heisenberg_sweep_against_oracle(direction, exponents):
    sweep = DF.heisenberg_limit_sweep(direction, exponents, PARAMS, mu=MU, nu=NU)
    for hbar, err in zip(PARAMS, sweep.errors):
        assert abs(err - heisenberg_oracle(direction, exponents, hbar, MU, NU)) < 1e-11
    assert abs(sweep.fitted_order - 1.0) <= 0.1
    assert 0.45 <= sweep.halving_ratio() <= 0.55


def test_heisenberg_sweep_taylor_size():
    sweep = DF.heisenberg_limit_sweep("W", (1, 0, 0), [1e-3], mu=0.1, nu=NU)
    pred = 1e-3 * (4 * math.pi * 0.1) ** 2 / 2
    assert abs(sweep.errors[0] - pred) / pred < 0.05


def test_heisenberg_sweep_trivial_cases():
    sweep = DF.heisenberg_limit_sweep("U", (0, 0, 0), PARAMS, mu=MU, nu=NU)
    assert sweep.errors == [0.0] * 4
    with pytest.raises(ValueError):
        DF.heisenberg_limit_sweep("X", (1, 0, 0), PARAMS, mu=MU, nu=NU)
    with pytest.raises(ValueError):
        DF.heisenberg_limit_sweep("W", (1, 0, 0), [], mu=MU, nu=NU)


def test_errors_within_taylor_remainder():
    # at the smallest parameter every family sits within 10x the leading
    # Taylor remainder of its worst term
    params = PARAMS
    tor = DF.torus_limit_sweep({(5,): 1.0}, params)
    assert tor.errors[-1] <= 10 * (25 * params[-1] / 2)
    pl = DF.plane_limit_sweep((1, 0), {(0, 5): 1.0}, params)
    assert pl.errors[-1] <= 10 * (25 * params[-1] / 2)
    he = DF.heisenberg_limit_sweep("W", (5, 0, 0), params, mu=MU, nu=NU)
    assert he.errors[-1] <= 10 * (params[-1] * (4 * math.pi * 5 * MU) ** 2 / 2)


def test_sweep_validation():
    with pytest.raises(ValueError):
        DF.DeformationSweep("h", [1e-2, 1e-2], [1.0, 1.0], "x")
    with pytest.raises(ValueError):
        DF.DeformationSweep("h", [1e-2, -1e-3], [1.0, 1.0], "x")
    with pytest.raises(ValueError):
        DF.DeformationSweep("h", [1e-2, 5e-3], [1.0], "x")
    for values in ([math.nan, 1e-3], [1e-2, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="parameter values must be finite"):
            DF.DeformationSweep("h", values, [1.0, 0.5], "x")
    sweep = DF.DeformationSweep("h", [1e-2, 5e-3], [1e-3, 5e-4], "halving")
    assert abs(sweep.fitted_order - 1.0) < 1e-12
    csv = sweep.to_csv()
    assert csv.splitlines()[0] == "parameter,error"
    assert set(sweep.summary_json()) == {"fitted_order", "target_description"}


@pytest.mark.parametrize("sweep", [
    lambda p: DF.torus_limit_sweep({(10 ** 10,): 1.0}, p),
    lambda p: DF.plane_partial_sweep({(1, 10 ** 10): 1.0}, p),
    lambda p: DF.plane_limit_sweep((1, 0), {(0, 10 ** 10): 1.0}, p),
    lambda p: DF.heisenberg_limit_sweep("W", (10 ** 10, 0, 1), p, mu=MU, nu=NU),
], ids=["torus", "plane-partial", "plane", "heisenberg"])
def test_overflowing_angles_are_errors(sweep):
    # the exchange angles overflow, so the gaps are nan: never folded to 0.0
    with pytest.raises(ValueError, match="errors must be finite"):
        sweep([1e300, 1e299])


def test_empty_coefficient_tables():
    for sweep in (DF.torus_limit_sweep, DF.plane_partial_sweep,
                  lambda coeffs, p: DF.plane_limit_sweep((1, 0), coeffs, p)):
        with pytest.raises(ValueError, match="empty coefficient table"):
            sweep({}, PARAMS)


# -- canonical derivations ----------------------------------------------------


def test_derivation_generator_actions(heisenberg):
    U = QElement.generator(heisenberg, 1)
    V = QElement.generator(heisenberg, 2)
    W = QElement.generator(heisenberg, 3)
    two_pi_i = 2j * math.pi
    d1, d2, d3 = DF.heisenberg_derivations(U, K=3)
    assert (d1 - U.scale(two_pi_i)).norm() == 0.0
    assert d2.norm() == 0.0 and d3.norm() == 0.0
    d1, d2, d3 = DF.heisenberg_derivations(V, K=3)
    assert d1.norm() == 0.0 and d3.norm() == 0.0
    assert (d2 - V.scale(two_pi_i)).norm() == 0.0
    d1, d2, d3 = DF.heisenberg_derivations(W, K=3)
    assert (d3 - W.scale(two_pi_i)).norm() == 0.0
    for l in (1, -1, 2, -2, 3, -3):
        assert abs(d1.terms[(0, l, 1)] - 1.0 / l) < 1e-15
    assert (0, 0, 1) not in d1.terms
    # mixed monomials: D3 sees only the W power
    x = QElement.monomial(heisenberg, (2, 5, 0))
    _, d2x, d3x = DF.heisenberg_derivations(x, K=2)
    assert (d2x - x.scale(two_pi_i * 5)).norm() < 1e-14
    assert d3x.norm() == 0.0


def test_derivation_variant_flag(heisenberg):
    W = QElement.generator(heisenberg, 3)
    d1p, _, _ = DF.heisenberg_derivations(W, K=4, variant="paper")
    d1d, _, _ = DF.heisenberg_derivations(W, K=4, variant="derived")
    diff = d1d - d1p
    assert set(diff.terms) == {(0, 0, 1)}
    assert abs(diff.terms[(0, 0, 1)] + 1j * math.pi) < 1e-15
    with pytest.raises(ValueError):
        DF.heisenberg_derivations(W, K=2, variant="nope")


def test_derivation_truncation_guard(heisenberg):
    W = QElement.generator(heisenberg, 3)
    with pytest.raises(ValueError):
        DF.heisenberg_derivations(W, K=0)
    # W-free elements do not need the series
    U = QElement.generator(heisenberg, 1)
    DF.heisenberg_derivations(U, K=0)


def test_brackets_with_d3(heisenberg):
    def d(i, x):
        return DF.heisenberg_derivations(x, K=3)[i]

    for e in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        x = QElement.monomial(heisenberg, e)
        b13 = d(0, d(2, x)) - d(2, d(0, x))
        b23 = d(1, d(2, x)) - d(2, d(1, x))
        assert b13.norm() <= 1e-12
        assert b23.norm() <= 1e-12


def test_derivation_linearity_and_leibniz(heisenberg, rng):
    def d1(x):
        return DF.heisenberg_derivations(x, K=3)[0]

    for _ in range(20):
        x = random_qelement(heisenberg, rng, max_exp=2, n_terms=2)
        y = random_qelement(heisenberg, rng, max_exp=2, n_terms=2)
        assert (d1(x + y) - d1(x) - d1(y)).norm() <= 1e-12
        assert (d1(x * y) - d1(x) * y - x * d1(y)).norm() <= 1e-11


def test_extend_derivation_inverse_rule(heisenberg):
    # D(g g^{-1}) = 0 forces the inverse rule
    W = QElement.generator(heisenberg, 3)
    winv = QElement.monomial(heisenberg, (0, 0, -1))
    d1 = lambda x: DF.heisenberg_derivations(x, K=3)[0]
    assert (d1(W * winv)).norm() <= 1e-13
    assert (d1(W) * winv + W * d1(winv)).norm() <= 1e-13
