"""Sizes far above the other tests: cohomology where one dense boundary map
would need gigabytes, carrier arithmetic far above the array cuts, and the
heat audit above the byte budget of its held draws.

Each test is also a step of the CI workflow, run alone by node id under
``timeout 60`` and ``-W error::RuntimeWarning``.
"""

import itertools
import json
import math
import pickle

import numpy as np

from ncdiff import DifferentialBasis, MatElement, MatrixCarrierBasis, deRham_dims, projection_basis
from ncdiff import dirichlet
from ncdiff import graph_algebra as ga
from ncdiff import qlattice as ql
from ncdiff.cli import main
from ncdiff.dirichlet import audit_semigroup, carre_du_champ, carre_du_champ_first_order, laplacian
from ncdiff.qlattice import QElement, heisenberg_spec, torus_spec
from ncdiff.testing import loop_graph


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_cohomology_at_scale(capsys):
    # M_10 and M_64 must give the closed form n * C(n, k) of the projection
    # basis, and so must the M_8 projection basis conjugated by a seeded
    # random unitary, whose ranks are taken in its eigenbasis
    for n in (10, 64):
        report = json.loads(_cli(capsys, "cohomology", "--carrier", "matrix", "--n", str(n)))
        h = [r["h_dim"] for r in report["degrees"]]
        assert h == [n * math.comb(n, k) for k in range(n + 1)], h
    _cli(capsys, "cohomology", "--carrier", "torus", "--theta", "0.9", "--trunc", "40")
    _cli(capsys, "cohomology", "--carrier", "heisenberg", "--trunc", "8")
    n = 8
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    basis = DifferentialBasis([MatElement(q @ p.mat @ q.conj().T) for p in projection_basis(n)],
                              mode="selfadjoint")
    h = [row.h_dim for row in deRham_dims(basis, MatrixCarrierBasis(n)).degrees]
    assert h == [n * math.comb(n, k) for k in range(n + 1)], h


def test_carrier_arithmetic_at_scale(monkeypatch):
    # products, sums, adjoints and Laplacians pass elements held as arrays to
    # each other: a seeded 2,000-term torus carre du champ against its
    # first-order form, and associativity and (xy)* = y* x* of seeded 500-term
    # Heisenberg products and of 100-term 4-cycle products.  The 4-cycle
    # elements hold every term with paths of length <= 4, so the triple
    # products stay under the int64 limit of the graph codes and never reach
    # the pair loop; length-5 paths would push them past it, back to the loop.
    # Both products held as arrays must survive a pickle round trip, and the
    # Laplacian of the held 4-cycle product over the vertex basis must equal
    # that of its dict copy.  Every q-lattice product above one chunk must
    # take its phases from a table (counted through a wrapper of the
    # builder), and x * y must equal the per-chunk route bit for bit.  The
    # torus carre du champ must take one pass over its term pairs, with one
    # table; a second one, on a box of 401^2 exponents, wider than the dense
    # bins, must sum its pairs by sorted codes and match the formula.
    rng = np.random.default_rng(21)
    tables, passes, sorted_bins = [], [], []
    build, pair_sums, sum_by_code = ql._phase_table, ql._pair_sums, ql.sum_by_code
    monkeypatch.setattr(ql, "_phase_table", lambda *args: tables.append(build(*args)) or tables[-1])
    monkeypatch.setattr(dirichlet, "_pair_sums",
                        lambda *args: passes.append(1) or pair_sums(*args))
    monkeypatch.setattr(ql, "sum_by_code",
                        lambda *args: sorted_bins.append(1) or sum_by_code(*args))

    def element(spec, K, n):
        grid = list(itertools.product(range(-K, K + 1), repeat=spec.generator_count))
        idx = rng.choice(len(grid), size=n, replace=False)
        return QElement(spec, {grid[i]: complex(*rng.standard_normal(2)) for i in idx})
    torus = torus_spec(0.7)
    basis = DifferentialBasis([QElement.generator(torus, 1)])
    a, c = element(torus, 30, 2000), element(torus, 30, 2000)
    out = carre_du_champ(a, c, basis)
    assert len(passes) == 1 and len(tables) == 1 and not sorted_bins, (passes, tables)
    d = (out - carre_du_champ_first_order(a, c, basis)).norm()
    assert d <= 1e-10, d
    assert None not in tables, tables
    a, c = element(torus, 100, 300), element(torus, 100, 300)
    out = carre_du_champ(a, c, basis)
    assert len(passes) == 2 and sorted_bins
    want = dirichlet._carre_by_products(a, c, basis)
    assert (out - want).norm() <= 1e-13 * want.norm()
    tables.clear()
    heis = heisenberg_spec(0.11, 0.07)
    x, y, z = (element(heis, 4, 500) for _ in range(3))
    xy = x * y
    back = pickle.loads(pickle.dumps(xy))
    assert xy._terms is None and (back - xy).norm() == 0.0 and back.terms == xy.terms
    assoc = (xy * z - x * (y * z)).norm()
    adj = (xy.adjoint() - y.adjoint() * x.adjoint()).norm()
    assert assoc <= 1e-10 and adj <= 1e-10, (assoc, adj)
    assert len(tables) == 5 and None not in tables, tables
    monkeypatch.setattr(ql, "_phase_table", lambda *args: None)
    (E, c), (F, d) = xy.keyed(), (x * y).keyed()
    assert np.array_equal(E, F) and c.tobytes() == d.tobytes()
    g = loop_graph(4)
    keys = ga.common_range_pairs(g, 4)
    x, y, z = (ga.GraphElement(g, {t: complex(*rng.standard_normal(2)) for t in keys})
               for _ in range(3))
    calls = []
    pair_product = ga._pair_product
    monkeypatch.setattr(ga, "_pair_product", lambda *args: calls.append(1) or pair_product(*args))
    xy = x * y
    assoc = (xy * z - x * (y * z)).norm()
    adj = (xy.adjoint() - y.adjoint() * x.adjoint()).norm()
    assert len(keys) == 100 and assoc <= 1e-10 and adj <= 1e-10, (assoc, adj)
    assert not calls, f"{len(calls)} products took the pair loop"
    back = pickle.loads(pickle.dumps(xy))
    assert xy._terms is None and back.terms == xy.terms
    vertices = DifferentialBasis([ga.vertex_projection(g, v) for v in g.vertices],
                                 mode="selfadjoint")
    plain = ga.GraphElement(g, xy.terms)
    d = (laplacian(xy, vertices) - laplacian(plain, vertices)).norm()
    assert d <= 1e-12, d


def test_heat_audit_at_scale(capsys):
    # the sampled heat audit at n = 64, whose draw alone is above the byte
    # budget of the held draws, must meet the selftest bounds on every row;
    # three single-time audits at n = 20 on a seeded rotated basis, which
    # reuse the held draw, must give exactly the rows of one three-time
    # audit; and so must they with a `semigroup --n 16` before each, as the
    # heat workload interleaves them, the n = 16 draw held beside the n = 20
    rows = json.loads(_cli(capsys, "semigroup", "--n", "64", "--t", "0.1,1,10"))["results"]
    assert [r["t"] for r in rows] == [0.1, 1.0, 10.0], rows
    for r in rows:
        assert (r["choi_min_eigenvalue"] >= -1e-10 and r["symmetry_error"] <= 1e-10
                and r["conservativity_error"] == 0.0 and r["markov_min"] >= -1e-10
                and r["markov_max"] <= 1 + 1e-10), r
    n = 20
    rng = np.random.default_rng(20)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    basis = DifferentialBasis([MatElement(q @ np.diag(np.exp(1j * rng.uniform(0, 6.3, n)))
                                         @ q.conj().T) for _ in range(2)],
                              prefactors=[0.8 + 0.3j, 1.1 - 0.4j])
    ts = [0.1, 1.0, 10.0]
    single = [audit_semigroup([t], n, basis).results[0] for t in ts]
    whole = audit_semigroup(ts, n, basis).results
    assert single == whole, single
    small, interleaved = [], []
    for t in ts:
        small += json.loads(_cli(capsys, "semigroup", "--n", "16", "--t", repr(t),
                                 "--samples", "100"))["results"]
        interleaved += audit_semigroup([t], n, basis).results
    assert interleaved == whole, interleaved
    argv = ["semigroup", "--n", "16", "--t", "0.1,1.0,10.0", "--samples", "100"]
    assert small == json.loads(_cli(capsys, *argv))["results"], small
    rotated_key = (20, 100, 7, basis.eigenbasis[0].tobytes())
    assert list(dirichlet._held_draws)[-2:] == [rotated_key, (16, 100, 7)]
