import cmath
import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ncdiff.dirichlet as D
import ncdiff.graph_algebra as ga
import ncdiff.qlattice as ql
from ncdiff.carrier import EQ_TOLERANCE, _KeyedBasis
from ncdiff.cli import main
from ncdiff.forms import (BasisConditionError, BasisModeError, DifferentialBasis,
                          DifferentialForm)
from ncdiff.matrix_algebra import (MatElement, MatrixCarrierBasis, joint_eigenbasis,
                                  projection_basis, trace)
from ncdiff.qlattice import QElement, heisenberg_spec, tau, torus_spec, torus_spec_2n
from ncdiff.testing import (loop_graph, random_graph_element, random_matelement,
                            random_qelement, star_tree)

import oracles
from conftest import MU, NU, THETA


@pytest.fixture(scope="module")
def p_basis2():
    return DifferentialBasis(projection_basis(2), mode="selfadjoint",
                             label="M_2 projections")


@pytest.fixture(scope="module")
def clock_basis3():
    w = cmath.exp(2j * math.pi / 3)
    C = MatElement(np.diag([1.0, w, w * w]))
    return DifferentialBasis([C], label="M_3 clock")


def test_laplacian_examples(p_basis2, torus, torus_basis):
    e12 = MatElement.unit(2, 0, 1)
    assert (D.laplacian(e12, p_basis2) - e12.scale(2)).norm() < 1e-14
    assert D.laplacian(MatElement.identity(2), p_basis2).norm() == 0.0
    V = QElement.generator(torus, 2)
    lap = D.laplacian(V, torus_basis)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2
    assert abs(lap.terms[(0, 1)] - ev) < 1e-13
    assert abs(ev - (2 - 2 * math.cos(THETA))) < 1e-15


def test_laplacian_prefactor_scaling(torus):
    V = QElement.generator(torus, 2)
    U = QElement.generator(torus, 1)
    scaled = DifferentialBasis([U], prefactors=[1.0 / THETA])
    lap = D.laplacian(V, scaled)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2 / THETA ** 2
    assert abs(lap.terms[(0, 1)] - ev) < 1e-12
    # complex prefactor on a self-adjoint basis conjugates in the outer slot
    cbasis = DifferentialBasis(projection_basis(2), prefactors=[2j, 1.0],
                               mode="selfadjoint")
    e12 = MatElement.unit(2, 0, 1)
    assert (D.laplacian(e12, cbasis) - e12.scale(5)).norm() < 1e-14


def test_heat_semigroup_matrix(p_basis2, rng):
    e12 = MatElement.unit(2, 0, 1)
    for t in (0.1, 1.0, 3.0):
        phi = D.heat_semigroup(e12, t, p_basis2)
        assert (phi - e12.scale(math.exp(-2 * t))).norm() < 1e-12
    # identity and diagonals are fixed
    one = MatElement.identity(2)
    assert (D.heat_semigroup(one, 5.0, p_basis2) - one).norm() == 0.0
    diag = MatElement(np.diag([0.3, -1.2]))
    assert (D.heat_semigroup(diag, 2.0, p_basis2) - diag).norm() < 1e-13
    with pytest.raises(ValueError):
        D.heat_semigroup(e12, -0.5, p_basis2)


def test_heat_semigroup_q_diagonal(torus, torus_basis):
    V = QElement.generator(torus, 2)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2
    for t in (0.5, 2.0):
        phi = D.heat_semigroup(V, t, torus_basis)
        assert abs(phi.terms[(0, 1)] - math.exp(-t * ev)) < 1e-13
    assert (D.heat_semigroup(QElement.one(torus), 4.0, torus_basis)
            - QElement.one(torus)).norm() == 0.0


def test_semigroup_law(p_basis3, torus, torus_basis, rng):
    S1 = D.heat_superoperator(0.4, p_basis3, 3)
    S2 = D.heat_superoperator(1.1, p_basis3, 3)
    S12 = D.heat_superoperator(1.5, p_basis3, 3)
    assert np.abs(S1 @ S2 - S12).max() <= 1e-10
    a = random_qelement(torus, rng)
    lhs = D.heat_semigroup(D.heat_semigroup(a, 0.4, torus_basis), 1.1, torus_basis)
    rhs = D.heat_semigroup(a, 1.5, torus_basis)
    assert (lhs - rhs).norm() <= 1e-12


def test_choi_t0_maximally_entangled(p_basis3):
    C0 = D.choi_matrix(0.0, 3, p_basis3).mat
    lam = np.linalg.eigvalsh(C0)
    assert abs(lam[0]) < 1e-12
    assert abs(lam[-1] - 3.0) < 1e-12
    # rank one
    assert (lam > 1e-10).sum() == 1


def test_choi_matches_definition(p_basis3):
    # reshape shortcut vs the defining sum over matrix units
    n = 3
    t = 0.7
    S = D.heat_superoperator(t, p_basis3, n)
    C = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            eij = np.zeros((n, n), dtype=complex)
            eij[i, j] = 1.0
            phi = (S @ eij.reshape(-1)).reshape(n, n)
            C += np.kron(eij, phi)
    assert np.abs(C - D.choi_matrix(t, n, p_basis3).mat).max() < 1e-12


def test_audit(p_basis3):
    audit = D.audit_semigroup([0.1, 1.0, 10.0], 3, p_basis3, samples=100)
    for row in audit.results:
        assert row["choi_min_eigenvalue"] >= -1e-10
        assert row["symmetry_error"] <= 1e-10
        assert row["conservativity_error"] == 0.0
        assert row["markov_min"] >= -1e-10
        assert row["markov_max"] <= 1 + 1e-10
    d = audit.to_json()
    assert set(d) == {"n", "basis", "results"}
    csv = audit.to_csv()
    assert csv.splitlines()[0] == \
        "t,choi_min,symmetry_err,conservative_err,markov_min,markov_max"
    assert len(csv.splitlines()) == 4


def _random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def _rotated_unitary_basis(n, seed):
    """Two commuting unitaries Q diag(exp(i phi)) Q^* with complex prefactors."""
    rng = np.random.default_rng(seed)
    q = _random_unitary(n, rng)
    mats = [MatElement(q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
                       @ q.conj().T) for _ in range(2)]
    return DifferentialBasis(mats, prefactors=[0.8 + 0.3j, 1.1 - 0.4j],
                             label=f"rotated M_{n} unitaries")


def _matrix_basis(kind, n):
    if kind == "projection":
        return DifferentialBasis(projection_basis(n), mode="selfadjoint")
    if kind == "rotated":
        return _rotated_unitary_basis(n, seed=n)
    # each rotated projection splits one eigenvector off a degenerate rest,
    # so the eigenbasis comes from refining one element at a time
    q = _random_unitary(n, np.random.default_rng(n))
    return DifferentialBasis([MatElement(q @ p.mat @ q.conj().T)
                              for p in projection_basis(n)], mode="selfadjoint")


@pytest.fixture
def no_held_draw(monkeypatch):
    """Start with no held audit draws, and restore the module's afterwards."""
    monkeypatch.setattr(D, "_held_draws", {})


def _recorded_draws(monkeypatch):
    """The stacks each later ``_audit_samples`` call returns, in call order."""
    draws, audit_samples = [], D._audit_samples
    monkeypatch.setattr(D, "_audit_samples",
                        lambda *args: draws.append(audit_samples(*args)) or draws[-1])
    return draws


def _fresh_draw(n, samples, seed, Q=None):
    """A fresh draw, taken into the eigenbasis Q a block of the audit at a time."""
    fresh, step = oracles.audit_samples(n, samples, seed), max(1, D._BLOCK_ENTRIES // (n * n))
    if Q is None:
        return fresh
    return [np.concatenate([Q.conj().T @ x[k:k + step] @ Q for k in range(0, samples, step)])
            for x in fresh]


def _is_fresh_draw(drawn, n, samples, seed, Q=None):
    fresh = _fresh_draw(n, samples, seed, Q)
    return all(x.tobytes() == y.tobytes() for x, y in zip(drawn, fresh, strict=True))


def _draw_key(n, samples, seed, Q=None):
    """The key of a held draw: the eigenbasis's bytes follow (n, samples, seed)."""
    return (n, samples, seed) + (() if Q is None else (Q.tobytes(),))


def test_held_draw_rows_equal_fresh_rows_in_any_order(no_held_draw, monkeypatch):
    ts = [0.1, 1.0, 10.0]
    cases = [(_matrix_basis(kind, n), n) for n in (4, 6, 9) for kind in ("projection", "rotated")]
    whole = [D.audit_semigroup(ts, n, basis, samples=20).results for basis, n in cases]
    # single-time calls, interleaved over all sizes and both bases, forwards and back
    calls = [(i, j) for j in range(len(ts)) for i in range(len(cases))]
    for order in (calls, calls[::-1]):
        for i, j in order:
            basis, n = cases[i]
            assert D.audit_semigroup([ts[j]], n, basis, samples=20).results == [whole[i][j]]
    # and every row is the one a fresh draw gives
    monkeypatch.setattr(D, "_audit_samples", oracles.audit_samples)
    assert [D.audit_semigroup(ts, n, basis, samples=20).results for basis, n in cases] == whole


@pytest.mark.parametrize("n, samples, seed", [(1, 3, 7), (4, 20, 7), (5, 7, np.int64(3))])
def test_held_draw_is_the_fresh_draw(n, samples, seed, no_held_draw):
    drawn = D._audit_samples(n, samples, seed)
    assert list(D._held_draws) == [(n, samples, seed)]
    again = D._audit_samples(n, samples, seed)
    assert all(x is y for x, y in zip(drawn, again))
    for x, y in zip(drawn, oracles.audit_samples(n, samples, seed)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 0.0


def test_unseeded_draws_are_fresh(no_held_draw):
    for seed in (None, np.random.default_rng(5)):
        first, second = D._audit_samples(3, 4, seed), D._audit_samples(3, 4, seed)
        assert not np.array_equal(first[0], second[0]) and D._held_draws == {}
    seq = np.random.SeedSequence(5)
    first, second = D._audit_samples(3, 4, seq), D._audit_samples(3, 4, seq)
    assert first[0] is not second[0] and np.array_equal(first[0], second[0])
    assert D._held_draws == {}


def test_draw_over_the_cap_is_not_held(no_held_draw, monkeypatch):
    # the heat workload's n = 16 and n = 20 audits fit the budget together;
    # `semigroup --n 64` does not fit it alone
    assert 3 * 100 * (16 ** 2 + 20 ** 2) * 16 <= D._HELD_DRAW_BYTES < 3 * 100 * 64 ** 2 * 16
    n, samples = 4, 10
    fits = 3 * samples * n * n * 16
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", fits)
    D._audit_samples(n, samples, 7)
    assert list(D._held_draws) == [(n, samples, 7)]
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", fits - 1)
    drawn = D._audit_samples(n, samples, 8)
    assert list(D._held_draws) == [(n, samples, 7)]  # neither held nor evicting
    assert all(np.array_equal(x, y) for x, y in zip(drawn, oracles.audit_samples(n, samples, 8)))


def test_failed_draw_leaves_nothing_held(no_held_draw, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the draw")

    D._audit_samples(3, 4, 7)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", exhausted)
        with pytest.raises(MemoryError):
            D._audit_samples(3, 5, 7)
    assert list(D._held_draws) == [(3, 4, 7)]
    D._audit_samples(3, 4, 7)
    with pytest.raises(ValueError):
        D._audit_samples(3, 4, -1)
    assert list(D._held_draws) == [(3, 4, 7)]
    # a miss evicts before it draws, so the peak stays at the budget even
    # when the draw then fails
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", 3 * 4 * 3 * 3 * 16)
    with pytest.raises(ValueError):
        D._audit_samples(3, 4, -1)
    assert D._held_draws == {}


def test_alternating_sizes_reuse_their_draws(no_held_draw, monkeypatch):
    # the heat workload's traffic: `semigroup --n 16` audits of the projection
    # basis alternate with audits of a rotated n = 20 basis, 100 samples each
    cases = [(DifferentialBasis(projection_basis(16), mode="selfadjoint"), 16),
             (_rotated_unitary_basis(20, seed=20), 20)]
    draws = _recorded_draws(monkeypatch)
    rows = [D.audit_semigroup([1.0], n, basis).results for basis, n in cases * 2]
    assert rows[2:] == rows[:2]
    for first, again in zip(draws[:2], draws[2:]):
        assert all(x is y for x, y in zip(first, again))
    assert list(D._held_draws) == [(16, 100, 7), _draw_key(20, 100, 7, cases[1][0].eigenbasis[0])]
    assert all(_is_fresh_draw(d, n, 100, 7, basis.eigenbasis[0])
               for d, (basis, n) in zip(draws, cases * 2))


@pytest.mark.parametrize("kind, n, samples", [("rotated", 2, 3), ("rotated", 3, 7),
                                              ("rotated-projection", 20, 45),
                                              ("rotated", 64, 5)], ids=lambda v: str(v))
def test_rotated_draw_is_the_fresh_draw_rotated_block_by_block(kind, n, samples, no_held_draw):
    # each block of A, B and the operators is taken into the eigenbasis as it
    # is drawn, and only the rotated stacks are held, under Q's bytes
    Q = _grid_basis(kind, n).eigenbasis[0]
    drawn = D._audit_samples(n, samples, 7, Q)
    assert list(D._held_draws) == [(n, samples, 7, Q.tobytes())]
    assert all(x is y for x, y in zip(drawn, D._audit_samples(n, samples, 7, Q.copy())))
    for x, y in zip(drawn, _fresh_draw(n, samples, 7, Q), strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert not x.flags.writeable
    assert sum(x.nbytes for d in D._held_draws.values() for x in d) == 48 * samples * n * n


def test_repeat_rotated_audit_rotates_no_sample(no_held_draw, monkeypatch):
    # each heat audit job builds its own basis: a second one with the same
    # matrices has an equal eigenbasis, so a later audit at another time
    # reads the held rotated stacks and takes no sample into the eigenbasis
    first = _rotated_unitary_basis(20, seed=20)
    D.audit_semigroup([0.1], 20, first)
    second = _rotated_unitary_basis(20, seed=20)
    assert second.eigenbasis[0] is not first.eigenbasis[0]
    assert np.array_equal(second.eigenbasis[0], first.eigenbasis[0])
    held, = D._held_draws.values()
    draws, rotated, eigen = _recorded_draws(monkeypatch), [], D._eigen

    def counted(Q, m):
        rotated.append(m.shape)
        return eigen(Q, m)
    monkeypatch.setattr(D, "_eigen", counted)
    rows = D.audit_semigroup([1.0, 10.0], 20, second).results
    assert all(x is y for x, y in zip(draws[0], held, strict=True))
    assert rotated == [(20, 20)] * 2  # the conservativity rows' Q^* 1 Q, one per time
    assert list(D._held_draws) == [_draw_key(20, 100, 7, first.eigenbasis[0])]
    assert rows == oracles.audit_semigroup([1.0, 10.0], 20, first)


def test_two_eigenbases_hold_two_draws(no_held_draw):
    # a draw in one eigenbasis is not a draw in another, nor the unrotated one
    n = 6
    Qs = [_grid_basis(kind, n).eigenbasis[0] for kind in ("rotated", "rotated-projection")]
    drawn = [D._audit_samples(n, 10, 7, Q) for Q in Qs + [None]]
    assert list(D._held_draws) == [_draw_key(n, 10, 7, Q) for Q in Qs + [None]]
    assert not np.array_equal(drawn[0][0], drawn[1][0])
    assert all(_is_fresh_draw(d, n, 10, 7, Q) for d, Q in zip(drawn, Qs + [None]))


def test_least_recently_used_draw_is_evicted(no_held_draw, monkeypatch):
    n, samples = 4, 10
    size = 3 * samples * n * n * 16
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", size)  # room for one draw
    first = D._audit_samples(n, samples, 1)
    D._audit_samples(n, samples, 2)
    assert list(D._held_draws) == [(n, samples, 2)]
    again = D._audit_samples(n, samples, 1)  # a miss again, drawn afresh
    assert again[0] is not first[0] and _is_fresh_draw(again, n, samples, 1)
    assert list(D._held_draws) == [(n, samples, 1)]
    D._held_draws.clear()
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", 2 * size)  # room for two
    a = D._audit_samples(n, samples, 1)
    D._audit_samples(n, samples, 2)
    assert D._audit_samples(n, samples, 1)[0] is a[0]  # seed 1 is now the most recent
    D._audit_samples(n, samples, 3)
    assert list(D._held_draws) == [(n, samples, 1), (n, samples, 3)]


@pytest.mark.parametrize("budget", [None, 3 * 10 * 25 * 16 * 2 + 7])
def test_held_bytes_never_exceed_the_budget(budget, no_held_draw, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(D, "_HELD_DRAW_BYTES", budget)
        sizes = [(n, samples) for n in range(1, 8) for samples in (5, 10)]
    else:
        sizes = [(n, 100) for n in (3, 16, 20, 32)]
    # the same 24 draws unrotated, then each in one of two eigenbases of its
    # size or in none
    bases = {n: [None] + [_random_unitary(n, np.random.default_rng(s)) for s in (n, n + 1)]
             for n in {n for n, _ in sizes}}
    for rotated in (False, True):
        D._held_draws.clear()
        rng, pick = np.random.default_rng(32), np.random.default_rng(33)
        for _ in range(24):
            n, samples = sizes[rng.integers(len(sizes))]
            seed = int(rng.integers(3))
            Q = bases[n][pick.integers(3)] if rotated else None
            drawn = D._audit_samples(n, samples, seed, Q)
            held = sum(x.nbytes for draw in D._held_draws.values() for x in draw)
            assert held <= D._HELD_DRAW_BYTES
            assert _is_fresh_draw(drawn, n, samples, seed, Q)
            if 48 * samples * n * n <= D._HELD_DRAW_BYTES:
                assert list(D._held_draws)[-1] == _draw_key(n, samples, seed, Q)


def test_draw_over_the_budget_leaves_the_held_draws(no_held_draw):
    held = [D._audit_samples(n, 100, 7) for n in (16, 20)]
    keys = list(D._held_draws)
    drawn = D._audit_samples(64, 100, 7)
    assert list(D._held_draws) == keys
    for k, d in zip(keys, held):
        assert all(x is y for x, y in zip(D._held_draws[k], d))
    assert _is_fresh_draw(drawn, 64, 100, 7)


def test_cli_audits_in_one_process_reuse_their_draws(no_held_draw, monkeypatch, capsys):
    # `selftest` audits n = 3 at 25 samples; each semigroup command audits
    # its own size, so no command evicts another's draw
    commands = [["selftest"], ["semigroup", "--n", "3", "--t", "1", "--samples", "20"],
                ["semigroup", "--n", "4", "--t", "1", "--samples", "10"]]
    draws = _recorded_draws(monkeypatch)
    outs = []
    for argv in commands * 2:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[3:] == outs[:3]
    assert len(draws) == 6
    for first, again in zip(draws[:3], draws[3:]):
        assert all(x is y for x, y in zip(first, again))
    assert list(D._held_draws) == [(3, 25, 7), (3, 20, 7), (4, 10, 7)]


_grid_basis = functools.cache(_matrix_basis)
_AUDIT_CASES = [("rotated", 1)] + [(kind, n) for n in (2, 3, 16, 20, 64)
                                   for kind in ("projection", "rotated", "rotated-projection")]
AUDIT_GRID = pytest.mark.parametrize("kind, n", _AUDIT_CASES, ids=lambda v: str(v))


@AUDIT_GRID
def test_audit_rows_are_the_whole_stack_rows(kind, n, no_held_draw):
    # the audit draws and checks its samples in blocks of _BLOCK_ENTRIES
    # entries per stack; sample counts that no block size divides, one and
    # three times, draws held and (n = 64 at 100 samples) over the budget
    basis, ts = _grid_basis(kind, n), [0.1, 1.0, 10.0]
    for samples in (1, 7, 25, 100, 101):
        want = oracles.audit_semigroup(ts, n, basis, samples=samples)
        assert D.audit_semigroup(ts, n, basis, samples=samples).results == want, samples
        assert D.audit_semigroup([1.0], n, basis, samples=samples).results == want[1:2], samples
    assert 48 * 100 * 64 ** 2 > D._HELD_DRAW_BYTES >= 48 * 25 * 64 ** 2


@pytest.mark.parametrize("kind, n", [case for case in _AUDIT_CASES if case[0] != "projection"],
                         ids=lambda v: str(v))
def test_audit_rows_match_the_back_rotated_oracle(kind, n, no_held_draw):
    # the audit reads its rows in the eigenbasis; taking each heat back out
    # of it, Q (M o Q^* a Q) Q^*, and symmetrizing the Markov samples there
    # gives the same rows within rounding (2.7e-15 at most up to n = 64)
    basis, ts = _grid_basis(kind, n), [0.1, 1.0, 10.0]
    for samples in (7, 100):
        got = D.audit_semigroup(ts, n, basis, samples=samples).results
        want = oracles.audit_semigroup_back_rotated(ts, n, basis, samples=samples)
        for row, back in zip(got, want, strict=True):
            assert row.keys() == back.keys() and row["t"] == back["t"]
            assert max(abs(row[k] - back[k]) for k in row) <= 1e-12, (samples, row, back)


@pytest.mark.parametrize("kind, n", [("rotated", 3), ("rotated-projection", 20),
                                     ("projection", 64)], ids=lambda v: str(v))
def test_audit_rows_on_draws_that_are_not_held(kind, n, no_held_draw, monkeypatch):
    basis, ts = _grid_basis(kind, n), [0.1, 1.0, 10.0]
    want = oracles.audit_semigroup(ts, n, basis, samples=37, seed=np.random.SeedSequence(5))
    assert D.audit_semigroup(ts, n, basis, samples=37, seed=np.random.SeedSequence(5)).results \
        == want and D._held_draws == {}
    monkeypatch.setattr(D, "_HELD_DRAW_BYTES", 0)  # too small for any draw
    assert D.audit_semigroup(ts, n, basis, samples=37).results \
        == oracles.audit_semigroup(ts, n, basis, samples=37) and D._held_draws == {}
    # an unseeded draw takes fresh entropy: give both the same
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: default_rng(np.random.SeedSequence(5) if seed is None
                                                      else seed))
    assert D.audit_semigroup(ts, n, basis, samples=37, seed=None).results == want


def _traced_peak(f) -> float:
    """Bytes that ``f()`` allocates at its peak above what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_audit_temporaries_hold_one_block(no_held_draw):
    # beside the three sample stacks (19.7 MB at n = 64, 100 samples) an
    # audit's temporaries hold one block; one pass over the whole stacks, as
    # oracles.audit_semigroup makes it, peaks at 37.8 MB there and adds
    # 2.0 MB to a held n = 20 draw
    big, small = _grid_basis("projection", 64), _grid_basis("rotated", 20)
    D.audit_semigroup([1.0], 64, big, samples=1)  # the eigenbasis and symbol, held
    assert _traced_peak(lambda: D.audit_semigroup([0.1, 1.0, 10.0], 64, big)) <= 22 * 2 ** 20
    D.audit_semigroup([1.0], 20, small)  # the draw, held
    assert _traced_peak(lambda: D.audit_semigroup([0.1, 1.0, 10.0], 20, small)) <= 0.8 * 2 ** 20


def _markov_filter_run(monkeypatch, ts, n, basis, samples=100):
    """An audit's rows and the number of samples it hands to eigvalsh, on a
    held draw (so that the draw's own eigvalsh is not counted)."""
    D._audit_samples(n, samples, 7, basis.eigenbasis[0])
    counts, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if a.ndim == 3:  # a stack of samples; the Choi row passes the n x n symbol
            counts.append(len(a))
        return eigvalsh(a, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", counted)
        rows = D.audit_semigroup(ts, n, basis, samples=samples).results
    return rows, sum(counts)


@pytest.mark.parametrize("t, most", [(1.0, 25), (10.0, 5)])
def test_markov_filter_skips_projection_samples(t, most, no_held_draw, monkeypatch):
    # on M_16 projections exp(-t W) = e^{-2t} J + (1 - e^{-2t}) I, J all ones,
    # so its least eigenvalue 1 - e^{-2t} bounds most samples well inside the
    # Markov range
    basis = _grid_basis("projection", 16)
    rows, diagonalized = _markov_filter_run(monkeypatch, [t], 16, basis)
    assert diagonalized <= most
    assert rows == oracles.audit_semigroup([t], 16, basis)


def test_markov_filter_keeps_every_rotated_sample(no_held_draw, monkeypatch):
    # the heat workload's kind of basis: the least eigenvalue of exp(-t W) is
    # 3e-5 to 0.09, under the running Markov minimum, so the Schur bound skips
    # no sample; at t = 0.1 and 1 the discs clear under a quarter of the
    # first block and are dropped, at t = 10 they clear 83 of 100 samples
    basis, ts = _rotated_unitary_basis(20, seed=20), [0.1, 1.0, 10.0]
    for t, count in zip(ts, (100, 100, 17)):
        rows, diagonalized = _markov_filter_run(monkeypatch, [t], 20, basis)
        assert diagonalized == count and rows == oracles.audit_semigroup([t], 20, basis)
    assert _markov_filter_run(monkeypatch, ts, 20, basis)[1] == 217


def test_markov_filter_declines_on_a_singular_symbol(no_held_draw, monkeypatch):
    # the symbol vanishes between units 0 and 1, so exp(-t W) has two equal
    # rows and least eigenvalue 0: the Schur bound is 0 and rules nothing out,
    # while the discs, whose radii fall with exp(-t W) off the diagonal, clear
    # none of the 100 samples at t = 0.1, 29 at t = 1 and 64 at t = 10
    basis = DifferentialBasis([MatElement(np.diag([1.0, 1.0, 0.0, 0.0])),
                               MatElement(np.diag([0.0, 0.0, 1.0, 0.0]))], mode="selfadjoint")
    ts = [0.1, 1.0, 10.0]
    W = D._matrix_symbol(basis, 4)[1].reshape(4, 4)
    assert W[0, 1] == 0.0
    assert all(abs(np.linalg.eigvalsh(np.exp(-t * W))[0]) < 1e-15 for t in ts)
    rows, diagonalized = _markov_filter_run(monkeypatch, ts, 4, basis)
    assert diagonalized == 100 + 71 + 36
    assert rows == oracles.audit_semigroup(ts, 4, basis)


def test_markov_discs_clear_rotated_samples_at_long_times(no_held_draw, monkeypatch):
    # at t = 10 exp(-t W) is nearly diagonal off a few close eigenvalue pairs,
    # so the Gershgorin discs of M o Q^* a Q (centres its diagonal, radii
    # sum_{j != i} M_ij |(Q^* a Q)_ij|) lie inside the Markov range for all
    # but 17 of the 100 samples, 8, 2, 2, 3 and 2 per block of 20; wider radii
    # (M dropped from them) diagonalize more, narrower ones fewer
    basis, counts = _rotated_unitary_basis(20, seed=20), []
    undecided = D._undecided

    def counted(x, *args):
        keep, discs = undecided(x, *args)
        counts.append(len(x[keep]))
        return keep, discs
    monkeypatch.setattr(D, "_undecided", counted)
    rows, diagonalized = _markov_filter_run(monkeypatch, [10.0], 20, basis)
    assert counts == [8, 2, 2, 3, 2] and diagonalized == 17
    assert rows == oracles.audit_semigroup([10.0], 20, basis)


MATRIX_CASES = pytest.mark.parametrize(
    "kind, n", [("projection", n) for n in (2, 3, 4, 5)]
    + [("rotated", 7), ("rotated", 12), ("rotated-projection", 6)], ids=lambda v: str(v))


@MATRIX_CASES
def test_schur_heat_matches_superoperator(kind, n, rng):
    basis = _matrix_basis(kind, n)
    ts = (0.0, 0.1, 1.0, 10.0)
    for t in ts:
        S = oracles.heat_superoperator(t, basis, n)
        a = random_matelement(n, rng)
        fast = D.heat_semigroup(a, t, basis).mat
        assert np.abs(fast - (S @ a.mat.reshape(-1)).reshape(n, n)).max() <= 1e-12
    audit = D.audit_semigroup(ts, n, basis, samples=10)
    for t, row in zip(ts, audit.results):
        C = oracles.choi_matrix(t, n, basis).mat
        choi_min = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
        assert abs(row["choi_min_eigenvalue"] - choi_min) <= 1e-12
        if kind == "projection":
            assert row["conservativity_error"] == 0.0


@MATRIX_CASES
def test_superoperators_match_the_kron_oracles(kind, n):
    # V diag(vec M) V^* from the symbol against Kronecker products and eigh;
    # with no eigenbasis to rotate through, both are exactly diagonal
    basis = _matrix_basis(kind, n)
    pairs = [(D.delta_superoperator(basis, n), oracles.delta_superoperator(basis, n))]
    for t in (0.0, 0.1, 1.0, 10.0):
        pairs.append((D.heat_superoperator(t, basis, n),
                      oracles.heat_superoperator(t, basis, n)))
        pairs.append((D.choi_matrix(t, n, basis).mat, oracles.choi_matrix(t, n, basis).mat))
    for got, want in pairs:
        if kind == "projection":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("kind, n", [("rotated", 24), ("rotated-projection", 16),
                                     ("projection", 6)], ids=lambda v: str(v))
def test_superoperators_are_the_heat_route_on_the_matrix_units(kind, n, monkeypatch):
    # each superoperator, and the Choi matrix, is one call of the matrix heat
    # route on the stack of the n^2 matrix units, with no Kronecker product,
    # and matches the Kronecker oracles above n = 12 too
    basis = _matrix_basis(kind, n)
    wants = [oracles.delta_superoperator(basis, n)]
    for t in (0.1, 1.0):
        wants += [oracles.heat_superoperator(t, basis, n), oracles.choi_matrix(t, n, basis).mat]
    stacks, schur_heat = [], D._schur_heat

    def recorded(Q, M, m, *args, **kwargs):
        stacks.append(m.shape)
        return schur_heat(Q, M, m, *args, **kwargs)

    def no_kron(*args):
        raise AssertionError("np.kron called")
    monkeypatch.setattr(D, "_schur_heat", recorded)
    monkeypatch.setattr(np, "kron", no_kron)
    gots = [D.delta_superoperator(basis, n)]
    for t in (0.1, 1.0):
        gots += [D.heat_superoperator(t, basis, n), D.choi_matrix(t, n, basis).mat]
    monkeypatch.undo()
    assert stacks == [(n * n, n, n)] * 5
    for got, want in zip(gots, wants):
        if kind == "projection":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12


def test_superoperator_memory_on_a_rotated_pair():
    # the n^2 x n^2 result alone is 16 MB at n = 32; the n^2 unit images take
    # 48 MB at their peak, the Kronecker product V diag(vec M) V^* took 64 MB
    basis = _matrix_basis("rotated", 32)
    D.heat_superoperator(1.0, basis, 32)  # the eigenbasis and symbol, held
    assert _traced_peak(lambda: D.heat_superoperator(1.0, basis, 32)) <= 56 * 2 ** 20


# -- joint eigenbasis against the superoperator oracle ------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
# weights w_k = 1 + frac(k phi) of X + X^* and i(X - X^*) in a single real
# combination; the eigenvalue 1 + i w1/w2 lands on 0 in that combination
_W1, _W2 = 1.0 + _PHI % 1.0, 1.0 + (2.0 * _PHI) % 1.0
_GOLDEN_ALIGNED = (_random_unitary(3, np.random.default_rng(3)),
                   [np.array([0.0, 1.0 + 1j * _W1 / _W2, 3.0])], [1.0])


@st.composite
def normal_families(draw):
    """(R, [lambda_j], [c_j]) for the commuting normal family R diag(lambda_j) R^*.

    Eigenvalues come from a small Gaussian-integer grid, so they repeat
    within an element and across elements.
    """
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.integers(1, n))
    lams = []
    for _ in range(k):
        grid = rng.integers(-2, 3, levels) + 1j * rng.integers(-2, 3, levels)
        lams.append(rng.choice(grid, n))
    prefactors = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(k)]
    return _random_unitary(n, rng), lams, prefactors


def _rotated(R, lams):
    return [R @ np.diag(lam) @ R.conj().T for lam in lams]


def _pairwise_commute(mats) -> bool:
    """The commutator rule for other carriers: every [X_i, X_j], [X_i, X_j^*] small."""
    pool = mats + [X.conj().T for X in mats]
    return all(np.abs(X @ Y - Y @ X).max() <= EQ_TOLERANCE for X in mats for Y in pool)


@pytest.mark.filterwarnings("ignore:basis element")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=normal_families(), t=st.sampled_from([0.1, 1.0]), seed=st.integers(0, 99))
@example(family=_GOLDEN_ALIGNED, t=1.0, seed=0)
def test_joint_eigenbasis_matches_superoperator(family, t, seed):
    R, lams, prefactors = family
    mats = _rotated(R, lams)
    n = R.shape[0]
    Q, found = joint_eigenbasis(mats)
    Q = np.eye(n) if Q is None else Q  # an all-diagonal family, such as zero
    assert np.abs(Q.conj().T @ Q - np.eye(n)).max() <= 1e-12
    for X, lam in zip(mats, found):
        assert np.abs(Q.conj().T @ X @ Q - np.diag(lam)).max() <= 1e-12
    basis = DifferentialBasis([MatElement(X) for X in mats], prefactors=prefactors)
    a = random_matelement(n, np.random.default_rng(seed))
    S = oracles.heat_superoperator(t, basis, n)
    fast = D.heat_semigroup(a, t, basis).mat
    assert np.abs(fast - (S @ a.mat.reshape(-1)).reshape(n, n)).max() <= 1e-12
    C = oracles.choi_matrix(t, n, basis).mat
    choi_min = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
    row, = D.audit_semigroup([t], n, basis, samples=2).results
    assert abs(row["choi_min_eigenvalue"] - choi_min) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=normal_families(), eps=st.sampled_from([1e-6, 1e-3]), data=st.data())
def test_perturbed_family_is_rejected(family, eps, data):
    R, lams, _ = family
    n = R.shape[0]
    # the pairwise rule sees a Hermitian coupling of eigenvectors a and b at
    # first order once some element, or the imaginary part of the first, tells
    # them apart
    labels = [tuple(lam[i] for lam in lams[1:]) + (lams[0][i].imag,) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a) if labels[a] != labels[b]]
    assume(pairs)
    a, b = data.draw(st.sampled_from(pairs))
    coupling = np.zeros((n, n))
    coupling[a, b] = coupling[b, a] = eps
    mats = _rotated(R, lams)
    mats[0] = R @ (np.diag(lams[0]) + coupling) @ R.conj().T
    assert not _pairwise_commute(mats)
    assert joint_eigenbasis(mats) is None
    with pytest.raises(BasisConditionError, match="mutually commute"):
        DifferentialBasis([MatElement(X) for X in mats])


def test_rounding_level_parts_skip_eigh(monkeypatch):
    # i(X - X^*) of a rotated projection is rounding noise, so the only eigh
    # calls are the n - 1 refinements by X + X^* that split one eigenvector off
    n = 8
    R = _random_unitary(n, np.random.default_rng(5))
    mats = [R @ p.mat @ R.conj().T for p in projection_basis(n)]
    eigh, norms = np.linalg.eigh, []

    def counting_eigh(a):
        norms.append(np.linalg.norm(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    Q, found = joint_eigenbasis(mats)
    assert len(norms) == n - 1 and min(norms) > 1.0
    for X, lam in zip(mats, found):
        assert np.abs(Q.conj().T @ X @ Q - np.diag(lam)).max() <= 1e-12


def test_heat_rejects_bad_input(p_basis2, p_basis3, torus, torus_basis):
    e12 = MatElement.unit(2, 0, 1)
    V = QElement.generator(torus, 2)
    for t in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            D.heat_semigroup(e12, t, p_basis2)
        with pytest.raises(ValueError):
            D.heat_semigroup(V, t, torus_basis)
        with pytest.raises(ValueError):
            D.audit_semigroup([1.0, t], 2, p_basis2)
        for call in (lambda: D.heat_superoperator(t, p_basis3, 3),
                     lambda: D.choi_matrix(t, 3, p_basis3),
                     lambda: D.trotter_check(t, 4, 3, p_basis3)):
            with pytest.raises(ValueError, match="time must be finite and nonnegative"):
                call()
    with pytest.raises(ValueError):
        D.audit_semigroup([1.0], 2, p_basis2, samples=0)
    with pytest.raises(ValueError):
        D.audit_semigroup([], 2, p_basis2)
    # the basis must be a matrix basis of the operand's size; a basis of
    # another carrier is refused by its symbol before its eigenbasis is read
    tree = star_tree(3)
    graph_basis = DifferentialBasis([ga.vertex_projection(tree, v) for v in tree.vertices],
                                    mode="selfadjoint")
    calls = [lambda b, n: D.delta_superoperator(b, n),
             lambda b, n: D.heat_superoperator(1.0, b, n),
             lambda b, n: D.choi_matrix(1.0, n, b),
             lambda b, n: D.audit_semigroup([1.0], n, b),
             lambda b, n: D.trotter_check(1.0, 4, n, b)]
    cases = [(call, b, n) for call in calls
             for b, n in ((p_basis2, 3), (torus_basis, 2), (graph_basis, 2))]
    cases.append((lambda b, n: D.heat_semigroup(e12, 1.0, b), torus_basis, 2))
    for call, b, n in cases:
        with pytest.raises(ValueError, match="does not act on this matrix dimension"):
            call(b, n)


def test_trotter(p_basis2, p_basis3):
    assert D.trotter_check(0.0, 8, 2, p_basis2) == 0.0
    e8 = D.trotter_check(1.0, 8, 2, p_basis2)
    e64 = D.trotter_check(1.0, 64, 2, p_basis2)
    # the conjugation/anticommutator split commutes for a normal basis, so
    # both errors sit at machine precision; compare with a float cushion
    assert e64 <= e8 + 1e-12
    assert D.trotter_check(1.0, 4096, 3, p_basis3) <= 1e-6
    with pytest.raises(ValueError):
        D.trotter_check(1.0, 0, 2, p_basis2)


@pytest.mark.parametrize("kind, n", [("projection", 2), ("projection", 3), ("rotated", 5),
                                     ("rotated-projection", 6)], ids=lambda v: str(v))
def test_trotter_matches_superoperator_oracle(kind, n):
    basis = _matrix_basis(kind, n)
    for t, steps in ((0.0, 8), (0.3, 1), (1.0, 8), (1.0, 64), (1.0, 4096)):
        fast = D.trotter_check(t, steps, n, basis)
        assert abs(fast - oracles.superoperator_trotter(t, steps, n, basis)) <= 1e-12, (t, steps)


def test_trotter_split_reassembles_generator(p_basis3):
    # -Delta = K1 + K2 for the projection basis
    n = 3
    K1, K2 = oracles.trotter_split(p_basis3, n)
    Ds = D.delta_superoperator(p_basis3, n)
    assert np.abs(K1 + K2 + Ds).max() < 1e-13


def test_a_trotter_step_limit_raises_without_a_warning(p_basis3):
    # exp(h S1) holds e^{2h} on its diagonal, beyond floats once h passes about 355
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"the Trotter step t/steps = 400\.0 is too long"):
            D.trotter_check(400.0, 1, 3, p_basis3)
        assert D.trotter_check(100.0, 1, 3, p_basis3) == 0.0
        assert D.trotter_check(1000.0, 10, 3, p_basis3) == 0.0
    assert abs(oracles.superoperator_trotter(100.0, 1, 3, p_basis3)) <= 1e-12


def test_an_enormous_time_decays_to_zero_on_every_heat_route(p_basis3, torus, torus_basis,
                                                               rng):
    # -t lambda overflows to -inf at t = 1e308, and exp gives the limit: only
    # what lambda = 0 holds survives, as at a long finite time
    a = random_matelement(3, rng)
    V = QElement.generator(torus, 2) + QElement.one(torus)
    routes = [lambda t: D.heat_semigroup(a, t, p_basis3).mat,
              lambda t: D.heat_superoperator(t, p_basis3, 3),
              lambda t: D.choi_matrix(t, 3, p_basis3).mat]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for huge in (1e308, np.finfo(float).max):
            for route in routes:
                assert route(huge).tobytes() == route(1e4).tobytes()
            assert D.heat_semigroup(V, huge, torus_basis).terms == {(0, 0): 1}
            rows = [D.audit_semigroup([t, 1.0], 3, p_basis3, samples=10).results
                    for t in (huge, 1e4)]
            assert [{**r, "t": 0} for r in rows[0]] == [{**r, "t": 0} for r in rows[1]]
    assert (D.heat_semigroup(a, 1e308, p_basis3).mat == np.diag(np.diag(a.mat))).all()


def test_the_cli_audit_at_an_enormous_time_writes_no_warning():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(D.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "ncdiff", "semigroup", "--n", "3",
                           "--t", "1e308", "--samples", "10"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["results"][0]["conservativity_error"] == 0.0


@pytest.mark.parametrize("samples", [2.5, 3.0, True, -1])
def test_the_sample_count_argument_is_checked(samples, p_basis3):
    with pytest.raises(ValueError, match=f"samples must be a nonnegative integer, got {samples}"):
        D.audit_semigroup([1.0], 3, p_basis3, samples=samples)
    with pytest.raises(ValueError, match="need at least one sample"):
        D.audit_semigroup([1.0], 3, p_basis3, samples=0)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, -1])
def test_the_step_count_argument_is_checked(steps, p_basis3):
    with pytest.raises(ValueError, match=f"steps must be a nonnegative integer, got {steps}"):
        D.trotter_check(1.0, steps, 3, p_basis3)
    with pytest.raises(ValueError, match="need at least one step"):
        D.trotter_check(1.0, 0, 3, p_basis3)
    assert D.trotter_check(1.0, np.int64(3), 3, p_basis3) == D.trotter_check(1.0, 3, 3, p_basis3)


def test_carre_du_champ_matrix_example(p_basis2):
    e12 = MatElement.unit(2, 0, 1)
    e22 = MatElement.unit(2, 1, 1)
    # single-half sum: sum_j [p_j, a]^* [p_j, a] = 2 e22
    half = None
    for x in p_basis2.scaled:
        t = (x * e12 - e12 * x).adjoint() * (x * e12 - e12 * x)
        half = t if half is None else half + t
    assert (half - e22.scale(2)).norm() < 1e-14
    # both-halves identity value doubles it
    assert (D.carre_du_champ(e12, e12, p_basis2) - e22.scale(4)).norm() < 1e-14
    assert (D.carre_du_champ_first_order(e12, e12, p_basis2) - e22.scale(4)).norm() < 1e-14


def test_carre_du_champ_identity(p_basis3, torus, torus_basis, rng):
    one3 = MatElement.identity(3)
    assert D.carre_du_champ(one3, random_matelement(3, rng), p_basis3).norm() < 1e-13
    for _ in range(100):
        a, c = random_matelement(3, rng), random_matelement(3, rng)
        lhs = D.carre_du_champ(a, c, p_basis3)
        rhs = D.carre_du_champ_first_order(a, c, p_basis3)
        assert (lhs - rhs).norm() <= 1e-10
    for _ in range(100):
        a, c = random_qelement(torus, rng), random_qelement(torus, rng)
        lhs = D.carre_du_champ(a, c, torus_basis)
        rhs = D.carre_du_champ_first_order(a, c, torus_basis)
        assert (lhs - rhs).norm() <= 1e-10


def _generators(spec):
    return [QElement.generator(spec, j) for j in range(1, spec.generator_count + 1)]


def _carre_bases():
    """The diagonal bases of the one-pass carre du champ tests, by label."""
    (U, _), (hU, hV, hW) = _generators(torus_spec(THETA)), _generators(heisenberg_spec(MU, NU))
    U1, _, U3, _ = _generators(torus_spec_2n([0.3, 1.1]))
    return {"torus {U}": DifferentialBasis([U]),
            "torus {U, U^2}": DifferentialBasis([U, U * U], prefactors=[0.7, 1.3j]),
            "heisenberg {W}": DifferentialBasis([hW]),
            "heisenberg {U, V}": DifferentialBasis([hU, hV]),
            "torus2n {U1, U3}": DifferentialBasis([U1, U3])}


def _assert_within(got, want, rel):
    """Every coefficient of ``got`` within ``rel`` |want| of ``want``'s, over
    both key sets: a difference of elements would prune what is below 1e-12."""
    keys = set(got.terms) | set(want.terms)
    worst = max(abs(got.terms.get(k, 0j) - want.terms.get(k, 0j)) for k in keys)
    assert worst <= rel * want.norm(), (worst, want.norm())


@pytest.mark.parametrize("label", list(_carre_bases()))
def test_one_pass_carre_du_champ_matches_the_formula(label, rng):
    # 60 x 60 terms as in the benchmark, and 300 x 40, above one chunk of
    # pairs, where the pass reads its phases from the table; operands held
    # as dicts, as arrays, and one of each
    basis = _carre_bases()[label]
    spec = basis.elements[0].spec
    for n_a, n_c in ((60, 60), (300, 40)):
        a, c = random_qelement(spec, rng, 6, n_a), random_qelement(spec, rng, 6, n_c)
        assert a._size() * c._size() > ql._ARRAY_PAIRS
        want = D._carre_by_products(a, c, basis)
        for x, y in oracles.route_cases(a, c):
            got = D._carre_in_one_pass(x, y, basis)
            assert got is not None and got._terms is None
            _assert_within(got, want, 1e-13)
            assert D.carre_du_champ(x, y, basis).terms == got.terms


def test_carre_du_champ_keeps_the_formula_off_the_one_pass_route(rng, monkeypatch):
    # a basis element that does not act diagonally (U + U^-1), a graph
    # carrier, and the selftest's 4 x 4 terms all take the three products
    torus = torus_spec(THETA)
    U = QElement.generator(torus, 1)
    cosine = DifferentialBasis([U + U.adjoint()], mode="selfadjoint")
    g = loop_graph(4)
    vertices = DifferentialBasis([ga.vertex_projection(g, v) for v in g.vertices],
                                 mode="selfadjoint")
    cases = [(cosine, *(random_qelement(torus, rng, 6, 60) for _ in range(2))),
             (vertices, *(random_graph_element(g, rng, 3, 40) for _ in range(2))),
             (_carre_bases()["torus {U}"], *(random_qelement(torus, rng, 3, 4) for _ in range(2)))]
    passes = []
    pair_sums = ql._pair_sums
    monkeypatch.setattr(D, "_pair_sums", lambda *args: passes.append(1) or pair_sums(*args))
    for basis, a, c in cases:
        want = D._carre_by_products(a, c, basis)
        assert D._carre_in_one_pass(a, c, basis) is None
        assert D.carre_du_champ(a, c, basis).terms == want.terms
    assert cases[0][1]._size() * cases[0][2]._size() > ql._ARRAY_PAIRS
    assert cases[1][1]._size() * cases[1][2]._size() > ga._ARRAY_PAIRS
    assert not passes


@pytest.mark.parametrize("label", ["torus {U}", "heisenberg {U, V}"])
def test_carre_du_champ_takes_the_one_pass_just_above_its_own_cut(label, rng, monkeypatch):
    # the one pass beats the three products far below the product's cut, and
    # the selftest's pairs of 4-term operands stay at or below its own
    assert 4 * 4 <= D._CARRE_PAIRS < ql._ARRAY_PAIRS
    basis = _carre_bases()[label]
    spec = basis.elements[0].spec
    passes = []
    pair_sums = ql._pair_sums
    monkeypatch.setattr(D, "_pair_sums", lambda *args: passes.append(1) or pair_sums(*args))
    for n_a, n_c, route in ((1, D._CARRE_PAIRS + 1, True), (3, 11, True), (4, 8, False),
                            (1, D._CARRE_PAIRS, False)):
        a, c = oracles.q_element(spec, rng, 3, n_a), oracles.q_element(spec, rng, 3, n_c)
        want = D._carre_by_products(a, c, basis)
        got = D._carre_in_one_pass(a, c, basis)
        assert (got is not None) is route is (n_a * n_c > D._CARRE_PAIRS)
        if route:
            _assert_within(got, want, 1e-13)
            assert D.carre_du_champ(a, c, basis).terms == got.terms
        else:
            assert D.carre_du_champ(a, c, basis).terms == want.terms
    assert len(passes) == 4


def test_dirichlet_form_values(p_basis2, torus, torus_basis, rng):
    e12 = MatElement.unit(2, 0, 1)
    gen_side, delta_side = D.dirichlet_form(e12, e12, p_basis2)
    assert abs(gen_side - 1.0) < 1e-13
    assert abs(delta_side - 1.0) < 1e-13
    one = MatElement.identity(2)
    gs, ds = D.dirichlet_form(one, one, p_basis2)
    assert abs(gs) < 1e-14 and abs(ds) < 1e-14
    # complex mode carries the factor 2, self-adjoint mode factor 1
    for _ in range(100):
        a = random_qelement(torus, rng)
        gs, ds = D.dirichlet_form(a, a, torus_basis)
        assert abs(ds - 2 * gs) <= 1e-10
    p_basis3 = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    for _ in range(100):
        a = random_matelement(3, rng)
        gs, ds = D.dirichlet_form(a, a, p_basis3)
        assert abs(ds - gs) <= 1e-10


def test_generator_trace_properties(p_basis3, torus, torus_basis, rng):
    # tau-symmetric, tau-positive, trace-annihilating
    for _ in range(100):
        a, b = random_matelement(3, rng), random_matelement(3, rng)
        lhs = trace(D.laplacian(a, p_basis3).adjoint() * b)
        rhs = trace(a.adjoint() * D.laplacian(b, p_basis3))
        assert abs(lhs - rhs) <= 1e-10
        assert trace(a.adjoint() * D.laplacian(a, p_basis3)).real >= -1e-12
        assert abs(trace(D.laplacian(a, p_basis3))) <= 1e-12
    for _ in range(100):
        a, b = random_qelement(torus, rng), random_qelement(torus, rng)
        lhs = tau(D.laplacian(a, torus_basis).adjoint() * b)
        rhs = tau(a.adjoint() * D.laplacian(b, torus_basis))
        assert abs(lhs - rhs) <= 1e-10
        assert tau(a.adjoint() * D.laplacian(a, torus_basis)).real >= -1e-12
        assert abs(tau(D.laplacian(a, torus_basis))) <= 1e-12


def test_locality_isometry(clock_basis3, torus, torus_basis, rng):
    b0 = random_matelement(3, rng)
    w = D.locality_isometry(MatElement.identity(3), b0, clock_basis3)
    assert len(w) == 2
    assert all(x.norm() < 1e-13 for x in w)
    for _ in range(100):
        a, b, c, d = (random_matelement(3, rng) for _ in range(4))
        assert D.isometry_check(a, b, c, d, clock_basis3) <= 1e-10
    for _ in range(50):
        a, b, c, d = (random_qelement(torus, rng, max_exp=2, n_terms=2)
                      for _ in range(4))
        assert D.isometry_check(a, b, c, d, torus_basis) <= 1e-10


def test_locality_needs_complex_mode(p_basis2):
    e = MatElement.identity(2)
    with pytest.raises(BasisModeError):
        D.locality_isometry(e, e, p_basis2)


# q-lattice bases of several slots, of a product monomial and of generators
# of several pairs: (spec, slot exponents, prefactors)
WIDE_SYMBOL_BASES = {
    "torus {U, U^2}": (lambda: torus_spec(THETA), [(1, 0), (2, 0)], [1, 0.5j]),
    "torus {U^2 V}": (lambda: torus_spec(THETA), [(2, 1)], None),
    "heisenberg {U, V}": (lambda: heisenberg_spec(MU, NU), [(1, 0, 0), (0, 1, 0)], None),
    "torus2n {U1, U3}": (lambda: torus_spec_2n([THETA, 1.3]), [(1, 0, 0, 0), (0, 0, 1, 0)],
                         None),
}


@pytest.mark.parametrize("case", ["torus {U}", "heisenberg {W}", *WIDE_SYMBOL_BASES,
                                  "star tree", "loop"])
def test_heat_symbol_matches_the_laplacian(case, torus, torus_basis, heisenberg,
                                           heisenberg_basis, rng):
    # one symbol, sum_j |w_j|^2 over the diagonal actions, on every carrier with
    # keys; on a q-lattice each slot's closed form |c|^2 4 sin^2(omega . k / 2)
    wide = case in WIDE_SYMBOL_BASES
    if wide:
        make, exponents, prefactors = WIDE_SYMBOL_BASES[case]
        spec = make()
        bases = [DifferentialBasis([QElement.monomial(spec, e) for e in exponents], prefactors)]
        zero = QElement(spec)
        keys = rng.integers(-40, 41, size=(200, spec.generator_count))
        elements = [QElement.monomial(spec, e) for e in keys.tolist()]
        fixed = [QElement.one(spec)]
        sample = lambda: random_qelement(spec, rng)
        undiagonal = DifferentialBasis([bases[0].elements[0] + QElement.one(spec)])
        foreign = QElement(torus_spec(0.3))
        messages = ("single-monomial", "does not act on this presentation")
    elif case in ("torus {U}", "heisenberg {W}"):
        spec, basis = ((torus, torus_basis) if case == "torus {U}"
                       else (heisenberg, heisenberg_basis))
        bases = [basis, DifferentialBasis([x.scale(c) for x, c in zip(basis.elements, [0.5 - 2j])])]
        zero = QElement(spec)
        keys = rng.integers(-9, 10, size=(40, spec.generator_count))
        elements = [QElement.monomial(spec, e) for e in keys.tolist()]
        fixed = [QElement.one(spec)]
        sample = lambda: random_qelement(spec, rng)
        undiagonal = DifferentialBasis([basis.elements[0] + QElement.one(spec)])
        foreign = QElement(torus_spec(0.3) if case == "torus {U}" else torus)
        messages = ("single-monomial", "does not act on this presentation")
    else:
        graph = star_tree(5) if case == "star tree" else loop_graph(3)
        fixed = [ga.vertex_projection(graph, v) for v in graph.vertices]
        prefactors = [0.5 - 2j, 1j, 1.5] + [2.0 + 1j] * (len(fixed) - 3)
        bases = [DifferentialBasis(fixed, prefactors=prefactors, mode="selfadjoint")]
        zero = ga.GraphElement(graph)
        keys = ga.common_range_pairs(graph, 2)
        elements = [ga.GraphElement.term(graph, mu, nu) for mu, nu in keys]
        sample = lambda: random_graph_element(graph, rng, n_terms=6)
        undiagonal = DifferentialBasis([fixed[0] + fixed[1]], mode="selfadjoint")
        foreign = ga.GraphElement(star_tree(5))
        messages = ("diagonally acting", "does not act on this graph")
    for b in bases:
        lam = b.symbol.on(_KeyedBasis(zero, keys)).lam()
        # on the wide bases within 1e-12 of the largest lambda (measured: 3e-14)
        bound = 1e-12 * lam.max() if wide else 1e-12
        for x, value in zip(elements, lam):
            key, = x.terms
            assert abs(value - D.laplacian(x, b).terms.get(key, 0j)) <= bound
        # the rank symbol over all F families of the weights is F lambda
        weights = b.symbol.on(_KeyedBasis(zero, keys)).weights(b.families)
        v = functools.reduce(np.hypot, (np.abs(w) for _, w in weights))
        F = len(b.families)
        assert (np.abs(v ** 2 - F * lam) <= (F * bound if wide else 1e-14 * F * lam)).all()
        a = sample()
        lhs = D.heat_semigroup(D.heat_semigroup(a, 0.4, b), 1.1, b)
        assert (lhs - D.heat_semigroup(a, 1.5, b)).norm() <= 1e-12
        for x in fixed:
            assert (D.heat_semigroup(x, 2.0, b) - x).norm() == 0.0
    with pytest.raises(ValueError, match=messages[0]):
        undiagonal.symbol.on(_KeyedBasis(zero, keys)).lam()
    with pytest.raises(ValueError, match=messages[1]):
        bases[0].symbol.on(_KeyedBasis(foreign, keys)).lam()
    # a carrier without keys, such as the forms, has no heat flow here
    with pytest.raises(TypeError, match="no semigroup evaluation"):
        D.heat_semigroup(DifferentialForm.from_element(bases[0], fixed[0]), 1.0, bases[0])


@pytest.mark.parametrize("kind, n", [*(("projection", n) for n in range(2, 7)),
                                     ("clock", 7), ("rotated", 5)], ids=str)
def test_matrix_heat_symbol_is_the_per_unit_route_bit_for_bit(kind, n):
    if kind == "clock":
        spec = torus_spec(2 * math.pi * 3 / 7)
        basis = DifferentialBasis([ql.clock_shift_rep(spec, QElement.generator(spec, 1))])
    else:
        basis = _matrix_basis(kind, n)
    W = basis.symbol.on(MatrixCarrierBasis(n)).lam().reshape(n, n)
    assert np.array_equal(W, oracles.matrix_heat_symbol(basis, n))


def test_the_heat_symbol_is_built_once(monkeypatch, torus, rng):
    # the slots' actions are built with the basis and held: the heat flow and
    # the one-pass carre du champ read their closed forms and build none
    basis = DifferentialBasis([QElement.generator(torus, 1), QElement.monomial(torus, (2, 0))],
                              prefactors=[1, 0.5j])
    a, c = (random_qelement(torus, rng, max_exp=4, n_terms=30) for _ in range(2))
    assert a._size() * c._size() > ql._ARRAY_PAIRS  # the one-pass route
    built, weights = [], ql._monomial_weights
    monkeypatch.setattr(ql, "_monomial_weights", lambda *args: built.append(args) or weights(*args))
    monkeypatch.setattr(D, "_carre_by_products", lambda *args: pytest.fail("the formula route"))
    for t in np.linspace(0.1, 1.0, 10):
        D.heat_semigroup(a, t, basis)
    D.carre_du_champ(a, c, basis)
    assert built == []


@pytest.mark.parametrize("kind", ["projection", "rotated"])
def test_audits_read_the_held_actions(kind, monkeypatch, no_held_draw):
    n = 5
    basis = _matrix_basis(kind, n)
    built, action = [], MatElement.diagonal_action
    monkeypatch.setattr(MatElement, "diagonal_action", lambda x: built.append(x) or action(x))
    for _ in range(3):
        D.audit_semigroup([0.5, 2.0], n, basis, samples=4)
    # a rotated basis builds the actions of its diagonal coordinates (and of
    # their adjoints) on first use, once
    assert len(built) == (0 if kind == "projection" else 2 * basis.size)


def test_a_slot_beyond_the_exponent_limit_names_the_limit():
    spec = torus_spec(0.9)
    V = QElement.generator(spec, 2)
    basis = DifferentialBasis([QElement.monomial(spec, (2 ** 62, 0))])
    # the Laplacian takes the commutator; the heat flow needs the slot's keys
    lap = D.laplacian(V, basis)
    assert set(lap.terms) == {(0, 1)} and lap.coefficient((0, 1)).real > 0
    for call in (lambda: D.heat_semigroup(V, 1.0, basis),
                 lambda: basis.symbol.on(_KeyedBasis.of(V)).lam()):
        with pytest.raises(ValueError, match=r"exponents of 2\*\*62 or more are too large"):
            call()
    # as for an operand beyond the limit
    with pytest.raises(ValueError, match=r"exponents of 2\*\*62 or more are too large"):
        D.heat_semigroup(QElement.monomial(spec, (0, 2 ** 62)), 1.0,
                         DifferentialBasis([QElement.generator(spec, 1)]))


def test_an_overflowing_heat_symbol_raises_without_a_warning():
    g = star_tree(3)
    vertices = DifferentialBasis([ga.vertex_projection(g, v) for v in g.vertices],
                                 prefactors=[1e200] * 3, mode="selfadjoint")
    a = ga.GraphElement(g, {k: 1.0 for k in ga.common_range_pairs(g, 1)})
    huge = DifferentialBasis([MatElement(np.diag([1e200, -1e200]))], mode="selfadjoint")
    torus = torus_spec(THETA)
    scaled = DifferentialBasis([QElement.generator(torus, 1)], prefactors=[1e200])
    calls = [lambda: D.heat_semigroup(a, 0.0, vertices),
             lambda: D.heat_semigroup(MatElement.identity(2), 0.0, huge),
             lambda: D.audit_semigroup([1.0], 2, huge),
             lambda: D.heat_superoperator(1.0, huge, 2),
             lambda: D.trotter_check(1.0, 4, 2, huge),
             lambda: D.heat_semigroup(QElement.generator(torus, 2), 1.0, scaled)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(ValueError, match="the heat symbol is not finite"):
                call()


def test_an_overflowing_laplacian_raises_and_a_nan_operand_passes(torus_basis):
    g = star_tree(3)
    vertices = DifferentialBasis([ga.vertex_projection(g, v) for v in g.vertices],
                                 prefactors=[1e200] * 3, mode="selfadjoint")
    a = ga.GraphElement(g, {k: 1.0 for k in ga.common_range_pairs(g, 1)})
    torus = torus_spec(THETA)
    scaled = DifferentialBasis([QElement.generator(torus, 1)], prefactors=[1e200])
    V = QElement.generator(torus, 2)
    # 17 x 17 terms: a^* b takes the array route, and so would the one-pass
    # carre du champ on a finite symbol
    big = QElement(torus, {(i, j): 1.0 for i in range(-8, 9) for j in range(-8, 9)})
    calls = [lambda: D.laplacian(a, vertices),
             lambda: D.dirichlet_form(a, a, vertices, trace_fn=lambda x: x.norm()),
             lambda: D.laplacian(V, scaled),
             lambda: D.dirichlet_form(V, V, scaled),
             lambda: D.carre_du_champ(V, V, scaled),
             lambda: D.carre_du_champ(big, big, scaled)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(ValueError, match="the Laplacian is not finite"):
                call()
        out = D.laplacian(V.scale(math.nan), torus_basis)
        assert big._size() ** 2 > ql._ARRAY_PAIRS
        nan_carre = [D.carre_du_champ(big.scale(math.nan), big, torus_basis),
                     D.carre_du_champ(big, big.scale(math.nan), torus_basis)]
    assert math.isnan(out.norm())
    assert all(math.isnan(x.norm()) for x in nan_carre)
