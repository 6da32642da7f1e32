"""Laplacian, heat semigroup and Dirichlet-form machinery over a differential basis.

The generator is Delta = sum_j [(c_j U_j)^*, [c_j U_j, .]].  Each element x_j
of the basis's ``diagonal`` coordinates sends a key k of its carrier to
w_j(k) times one key and x_j^* sends that back, so Delta multiplies key k by
the heat symbol lambda(k) = sum_j |w_j(k)|^2, and the semigroup is one decay
per term on q-lattices and graphs, exact with no truncation.  Every reader
takes lambda from the held ``basis.symbol`` through its one entry point,
``basis.symbol.on(keyset).lam()``: the heat flow and the one-pass carre du
champ on their operands' keys (``carrier._KeyedBasis.of``), the matrix routes
on :class:`~ncdiff.matrix_algebra.MatrixCarrierBasis`.  On q-lattice slots
c_j U^{g_j} it is sum_j |c_j|^2 4 sin^2(theta g_j . k / 2).  A matrix basis
acts in its joint eigenbasis Q as diag(c_j lambda_j): the symbol is
W[a, b] = sum_j |c_j lambda_j(a) - c_j lambda_j(b)|^2, the heat channel is the
Schur multiplier Phi_t(a) = Q (exp(-t W) o Q^* a Q) Q^*, and it is completely
positive exactly when exp(-t W) is positive semidefinite.  Every matrix route
that returns a matrix applies M = exp(-t W), or W for Delta, in :func:`_schur_heat`:
the heat flow, the audit's Phi_t(1), and the n^2 x n^2 superoperators on row-major
vectorized matrices (:func:`delta_superoperator`, :func:`heat_superoperator`,
:func:`choi_matrix` by reshuffling) as its images of the n^2 matrix units, in
O(n^5); Kronecker and ``expm`` builders of them are the tests' oracles.  Every
first-order bracket [c_j U_j, a] (the Laplacian, the carre du champ, the
Dirichlet pairing, the locality isometry) goes through the basis's ``ad``
maps, so a diagonal basis element never forms two products.
:func:`audit_semigroup` samples the channel on seeded random operators,
drawn in blocks of ``_BLOCK_ENTRIES`` entries and held already taken into the
eigenbasis, Q^* a Q, reads them there, and diagonalizes M o Q^* a Q where
neither a Schur bound nor Gershgorin's discs place it inside the Markov range
so far.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .carrier import _KeyedBasis, _new_tuple, _Node
from .forms import BasisModeError, DifferentialBasis
from .matrix_algebra import MatElement, MatrixCarrierBasis, trace
from .qlattice import QElement, _pair_sums, tau as q_tau


def laplacian(a, basis: DifferentialBasis):
    """Delta(a) = sum_j [(c_j U_j)^*, [c_j U_j, a]] on any carrier; a
    ValueError where a finite operand gives a non-finite result."""
    out = reduce(add, (ad_star(ad(a)) for ad, ad_star in zip(basis.ad, basis.ad_star)))
    if not math.isfinite(out.norm()) and math.isfinite(a.norm()):
        raise ValueError("the Laplacian is not finite")
    return out


def default_trace(a):
    """Normalized trace on matrices, identity-coefficient trace on q-elements."""
    if isinstance(a, MatElement):
        return trace(a, normalized=True)
    if isinstance(a, QElement):
        return q_tau(a)
    raise TypeError(f"no trace available for {type(a).__name__}")


# -- matrix Schur-multiplier route -------------------------------------------

def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")


def _decay(t, lam: np.ndarray) -> np.ndarray:
    """exp(-t lam), t a time or an array of times that broadcasts against lam;
    where -t lam overflows (an enormous finite time) the decay is 0, unwarned."""
    with np.errstate(over="ignore"):
        return np.exp(-t * lam)


# The seeded samples of audits are held while the three complex stacks of
# all of them together fit this many bytes: n = 16, 20 and 32 at 100 samples
# side by side, never n = 64.
_HELD_DRAW_BYTES = 8 * 2 ** 20
_held_draws: dict = {}  # (n, samples, seed[, Q bytes]) -> (A, B, operators) in Q, oldest first
# An audit draws and checks its samples in blocks of at most this many entries
# per stack, as ``qlattice._CHUNK_PAIRS`` bounds a chunk: 32 samples at n = 16.
_BLOCK_ENTRIES = 2 ** 13
# An audit skips a sample's eigvalsh when its Schur or disc bounds clear the Markov range so
# far by this, over twice eigvalsh's error: n u |M| <= n^2 u on lambda_min(M), 5e-13 at n <= 64.
_MARKOV_MARGIN = 1e-9


def _eigen(Q, m: np.ndarray) -> np.ndarray:  # m in the eigenbasis, Q^* m Q (m where Q is None)
    return m if Q is None else Q.conj().T @ m @ Q


def _schur_heat(Q, M: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Q (M o Q^* m Q) Q^*, the Schur multiplier M (exp(-t W) or W) on one n x n
    matrix m or a stack."""
    return M * m if Q is None else Q @ (M * _eigen(Q, m)) @ Q.conj().T


def heat_semigroup(a, t: float, basis: DifferentialBasis):
    """Apply exp(-t Delta) to an element: on a matrix the Schur multiplier in
    the basis's eigenbasis, on a carrier with keys one decay per key."""
    _check_time(t)
    if not hasattr(a, "parent_name"):
        raise TypeError(f"no semigroup evaluation for {type(a).__name__}")
    M = _decay(t, basis.symbol.on(_KeyedBasis.of(a)).lam())
    if isinstance(a, MatElement):
        return MatElement(_schur_heat(basis.eigenbasis[0], M.reshape(a.mat.shape), a.mat))
    keys, coeffs = a.keyed()
    return a._from_keys(keys, M * coeffs)


def _matrix_symbol(basis: DifferentialBasis, n: int) -> tuple:
    """The eigenbasis Q (None when diagonal) and the n x n heat symbol W,
    W[a, b] on the unit e_ab, read first: a basis not acting on M_n raises its ValueError."""
    W = basis.symbol.on(MatrixCarrierBasis(n)).lam()
    return basis.eigenbasis[0], W.reshape(n, n)


def _unit_images(Q, M: np.ndarray) -> np.ndarray:
    """The multiplier M as an n^2 x n^2 matrix on row-major vectorized
    matrices: column a n + b is its image of the matrix unit e_ab."""
    return _schur_heat(Q, M, np.eye(M.size).reshape(-1, *M.shape)).reshape(M.size, -1).T


def delta_superoperator(basis: DifferentialBasis, n: int) -> np.ndarray:
    """Delta as an n^2 x n^2 matrix on vectorized matrices; Hermitian PSD."""
    return _unit_images(*_matrix_symbol(basis, n))


def heat_superoperator(t: float, basis: DifferentialBasis, n: int) -> np.ndarray:
    """exp(-t Delta) as an n^2 x n^2 matrix on vectorized matrices."""
    _check_time(t)
    Q, W = _matrix_symbol(basis, n)
    return _unit_images(Q, _decay(t, W))


def choi_matrix(t: float, n: int, basis: DifferentialBasis) -> MatElement:
    """Choi matrix sum_{ab} e_ab (x) Phi_t(e_ab) of the heat channel."""
    S = heat_superoperator(t, basis, n).T.reshape(n, n, n, n)  # S[a, b] = Phi_t(e_ab)
    return MatElement(S.transpose(0, 2, 1, 3).reshape(n * n, n * n))


class SemigroupAudit(_Node):
    """Per-time diagnostics of the heat channel.

    ``results`` rows carry: choi_min_eigenvalue (complete positivity needs
    >= 0), symmetry_error (trace-symmetry defect over random pairs),
    conservativity_error (|Phi_t(1) - 1|), markov_min/markov_max (spectral
    range of Phi_t over random operators between 0 and 1).
    """

    def __new__(cls, n: int, basis_label: str, results: list):
        return _new_tuple(cls, (cls, n, basis_label, results))

    def to_json(self) -> dict:
        return {"n": self.n, "basis": self.basis_label,
                "results": [dict(r) for r in self.results]}

    def to_csv(self) -> str:
        lines = ["t,choi_min,symmetry_err,conservative_err,markov_min,markov_max"]
        for r in self.results:
            lines.append(f"{r['t']!r},{r['choi_min_eigenvalue']!r},"
                         f"{r['symmetry_error']!r},{r['conservativity_error']!r},"
                         f"{r['markov_min']!r},{r['markov_max']!r}")
        return "\n".join(lines) + "\n"


def _audit_samples(n: int, samples: int, seed, Q=None):
    """Read-only stacks A, B of random pairs and of random Hermitian operators
    with spectrum inside [0, 1], all from one ``default_rng(seed)``, drawn into
    the stacks a block at a time and each block taken into the eigenbasis Q
    as drawn, Q^* a Q (the operators right after they are built from H): the
    blocks of A and B first, one stream as one draw of them all, then the
    operators'.  A draw with integer arguments is held, once complete, under
    (n, samples, seed) and Q's bytes (none for Q None), so bases with equal Q
    share it, for later calls while all held draws fit ``_HELD_DRAW_BYTES``
    together: a miss first evicts the least recently used until its
    3 * samples * n^2 complex entries fit, and a draw that can never fit is
    neither held nor evicts anything."""
    key = (n, samples, seed)
    holdable = all(isinstance(v, (int, np.integer)) for v in key)
    size = 48 * int(samples) * int(n) ** 2 if holdable else math.inf
    key += () if Q is None else (Q.tobytes(),)
    if size <= _HELD_DRAW_BYTES:
        if key in _held_draws:
            _held_draws[key] = _held_draws.pop(key)  # now the most recently used
            return _held_draws[key]
        while size + sum(x.nbytes for d in _held_draws.values() for x in d) > _HELD_DRAW_BYTES:
            del _held_draws[next(iter(_held_draws))]
    rng = np.random.default_rng(seed)
    A, B, ops = (np.empty((samples, n, n), dtype=complex) for _ in range(3))
    step = max(1, _BLOCK_ENTRIES // (n * n))
    blocks = [slice(k, k + step) for k in range(0, samples, step)]
    for s in blocks:
        draws = rng.standard_normal((len(A[s]), 4, n, n))
        A[s], B[s] = (_eigen(Q, draws[:, i] + 1j * draws[:, i + 1]) for i in (0, 2))
    eye = np.eye(n)
    for s in blocks:
        X = rng.standard_normal((len(A[s]), 2, n, n))
        X = X[:, 0] + 1j * X[:, 1]
        H = X + X.conj().swapaxes(1, 2)
        lam = np.linalg.eigvalsh(H)
        lo, hi = lam[:, :1, None], lam[:, -1:, None]
        flat = hi - lo < 1e-12
        ops[s] = _eigen(Q, np.where(flat, 0.5 * eye, (H - lo * eye) / np.where(flat, 1.0, hi - lo)))
    for stack in (A, B, ops):
        stack.setflags(write=False)
    if size <= _HELD_DRAW_BYTES:
        _held_draws[key] = A, B, ops
    return A, B, ops


def _undecided(x, M: np.ndarray, mu: float, lo: float, hi: float, discs: bool) -> tuple:
    """Which operators x (0 <= x <= 1, in the eigenbasis) have bounds on the spectrum of M o x
    that do not clear [lo, hi], widened by their diagonals, by ``_MARKOV_MARGIN``, and whether
    to test discs next: the Schur bounds, then with ``discs`` Gershgorin's discs (centres x_ii,
    as M_ii = 1; radii sum_{j != i} M_ij |x_ij|), kept on while they clear a quarter of the rest."""
    d = x.diagonal(0, 1, 2).real
    lo, hi = min(lo, d.min()) + _MARKOV_MARGIN, max(hi, d.max()) - _MARKOV_MARGIN
    low, high = mu * d.min(1), 1 - mu * (1 - d.max(1))
    keep = (low <= lo) | (high >= hi)
    if discs and keep.any():
        c, r = d[keep], np.einsum("kij,ij->ki", np.abs(x[keep]), M - np.eye(len(M)))
        low, high = np.maximum(low[keep], (c - r).min(1)), np.minimum(high[keep], (c + r).max(1))
        cleared = (low > lo) & (high < hi)
        discs, keep[keep] = 4 * cleared.sum() >= len(c), ~cleared
    return (slice(None) if keep.all() else keep), discs


def audit_semigroup(ts: Sequence[float], n: int, basis: DifferentialBasis,
                    samples: int = 100, seed: int = 7) -> SemigroupAudit:
    """Run the complete-positivity / symmetry / conservativity / Markov checks.

    The channel is the Schur multiplier M = exp(-t W) in the basis's joint
    eigenbasis, the held symbol read once for all times.  The Choi matrix is
    unitarily similar (via conj(Q) (x) Q) to M on span{e_i (x) e_i} plus a
    zero block, so its least eigenvalue is read off mu = lambda_min(M).  The
    random pairs and operators with spectrum in [0, 1] are drawn once per
    (n, samples, seed) and eigenbasis, each block taken into the eigenbasis
    as it is drawn, and held (:func:`_audit_samples`): a repeat audit gets a
    fresh draw's rows without the redraw and rotates no sample.  The samples
    are read in the eigenbasis a block at a time (a -> Q^* a Q keeps traces
    and spectra): tau-symmetry compares tr((M o A) B) with tr(A (M o B)),
    the Markov range is M o A's spectrum, and only the conservativity row,
    which checks Q, forms Phi_t(1) = Q (M o 1) Q^*; no temporary outgrows a
    block.  By the Schur product theorem 0 <= A <= 1 puts that spectrum in
    [mu min_i A_ii, 1 - mu min_i (1 - A_ii)], and each A_ii = (M o A)_ii is a
    Rayleigh quotient: a sample whose bounds, or discs (:func:`_undecided`), lie
    ``_MARKOV_MARGIN`` inside the range of the quotients and eigenvalues so far
    is not diagonalized.  The extremes still are, by the same eigvalsh, so
    each row is one whole-stack pass's bit for bit.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one time")
    for t in ts:
        _check_time(t)
    if _KeyedBasis._checked_size(samples, "samples") < 1:
        raise ValueError("need at least one sample")
    Q, W = _matrix_symbol(basis, n)
    Ms = _decay(np.array(ts, dtype=float)[:, None, None], W)
    mus = [float(np.linalg.eigvalsh(M)[0]) for M in Ms]

    parts = [[] for _ in ts]  # per time and block: symmetry, Markov min and max so far
    discs = [True] * len(ts)  # per time: whether the Gershgorin discs are still tested
    stacks, step = _audit_samples(n, samples, seed, Q), max(1, _BLOCK_ENTRIES // (n * n))
    for k in range(0, samples, step):
        A, B, ops = (x[k:k + step] for x in stacks)
        # tau-symmetry tr(Phi(a) b) = tr(a Phi(b)), read as tr((M o A) B) = tr(A (M o B))
        syms = [np.abs(np.einsum("kij,kji->k", M * A, B) - np.einsum("kij,kji->k", A, M * B))
                for M in Ms]
        for i, (part, sym, M, mu) in enumerate(zip(parts, syms, Ms, mus)):
            lo, hi = part[-1][1:] if part else (np.inf, -np.inf)  # the Markov range so far
            keep, discs[i] = _undecided(ops, M, mu, lo, hi, discs[i])
            lam = np.linalg.eigvalsh(M * ops[keep])
            part.append((sym.max(), lam[:, 0].min(initial=lo), lam[:, -1].max(initial=hi)))
    rows, eye = [], np.eye(n)
    for t, M, choi_min, part in zip(ts, Ms, mus, parts):
        sym, mk_min, mk_max = np.array(part).T
        rows.append({
            "t": t,
            "choi_min_eigenvalue": min(choi_min, 0.0) if n >= 2 else choi_min,
            "symmetry_error": float(sym.max() / n),
            "conservativity_error": float(np.abs(_schur_heat(Q, M, eye) - eye).max()),
            "markov_min": float(mk_min.min()),
            "markov_max": float(mk_max.max()),
        })
    return SemigroupAudit(n, basis.label, rows)


def trotter_check(t: float, steps: int, n: int, basis: DifferentialBasis) -> float:
    """Splitting error |(e^{(t/m)K1} e^{(t/m)K2})^m - e^{-t Delta}|_2.

    K1 is the conjugation part sum (U^* a U + U a U^*), K2 the anticommutator
    with A = -sum U^* U: for a normal basis -Delta = K1 + K2, and in the
    unitary eigenbasis both are commuting Schur multipliers, S1 = -W - S2 and
    S2 = -sum_j (|lambda_j(a)|^2 + |lambda_j(b)|^2) (lambda_j on ``basis.diagonal``).
    The value, max |(e^{h S1} e^{h S2})^m - e^{-t W}| with h = t / m, is the
    rounding of the m-th power, about linear in m: 1.6e-15, 1.4e-12, 1.1e-7 at
    10^3, 10^6, 10^9 steps on the M_3 projections.  A ValueError if e^{h S1} overflows.
    """
    _check_time(t)
    if _KeyedBasis._checked_size(steps, "steps") < 1:
        raise ValueError("need at least one step")
    W = _matrix_symbol(basis, n)[1]
    sq = sum(np.abs(np.diag(x.mat)) ** 2 for x in basis.diagonal)
    S2 = -(sq[:, None] + sq[None, :])
    h = t / steps
    with np.errstate(over="ignore", invalid="ignore"):
        approx = (np.exp(h * (-W - S2)) * np.exp(h * S2)) ** steps
    if not np.isfinite(approx).all():
        raise ValueError(f"the Trotter step t/steps = {h!r} is too long: exp(h S1) overflows")
    return float(np.abs(approx - _decay(t, W)).max())


# -- first-order / carre du champ identities --------------------------------

# The one pass beats the three products above about 30 term pairs: on the
# torus basis {U} with operands held as dicts, 16 pairs took 180-220 us by the
# formula against 185-300 us by the pass, 36 pairs 400-570 against 200-330 us.
_CARRE_PAIRS = 32


def carre_du_champ(a, c, basis: DifferentialBasis):
    """Algebra-valued form 2 Gamma(a, c) = a^* Delta(c) + Delta(a^*) c - Delta(a^* c).

    Two q-lattice elements with more than ``_CARRE_PAIRS`` term pairs, under a
    basis that acts diagonally, take one pass over its term pairs
    (:func:`_carre_in_one_pass`); every other operand, and any whose symbol
    or Laplacians are not finite, takes the formula as written
    (:func:`_carre_by_products`).  The two agree within rounding.
    """
    out = _carre_in_one_pass(a, c, basis)
    return _carre_by_products(a, c, basis) if out is None else out


def _carre_by_products(a, c, basis: DifferentialBasis):
    """The formula: three products and three Laplacians."""
    astar = a.adjoint()
    return (astar * laplacian(c, basis) + laplacian(astar, basis) * c
            - laplacian(astar * c, basis))


def _carre_in_one_pass(a, c, basis: DifferentialBasis):
    """2 Gamma(a, c) = sum_{e,f} (a^*)_e c_f phi(e, f)
    (lambda(e) + lambda(f) - lambda(e+f)) U^{e+f}, with U^e U^f =
    phi(e, f) U^{e+f} and Delta U^e = lambda(e) U^e: one pass
    (:func:`~ncdiff.qlattice._pair_sums`) bins P = sum (a^*)_e c_f phi and
    R = sum (a^*)_e c_f phi (lambda(e) + lambda(f)) on the same codes, and
    R - lambda P is pruned once.  None, for the formula, at or below
    ``_CARRE_PAIRS`` term pairs, where the heat symbol or the pass declines,
    and where lambda times any coefficient, or the result, is not finite.
    """
    if (not isinstance(a, QElement) or not isinstance(c, QElement)
            or a._size() * c._size() <= _CARRE_PAIRS):
        return None
    astar, on = a.adjoint(), basis.symbol.on
    try:
        lam_a, lam_c = on(_KeyedBasis.of(astar)).lam(), on(_KeyedBasis.of(c)).lam()
        summed = _pair_sums(astar, c, (lam_a, lam_c))
        if summed is None:
            return None
        keys, P, R = summed
        lam = on(_KeyedBasis(astar, keys)).lam()
    except ValueError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        out = R - lam * P
        if not all(np.isfinite(x).all() for x in (lam_a * astar.keyed()[1],
                                                   lam_c * c.keyed()[1], lam * P, out)):
            return None
    return astar._from_keys(keys, out)


def carre_du_champ_first_order(a, c, basis: DifferentialBasis):
    """sum_j ([c_j U_j, a]^* [c_j U_j, c] + [(c_j U_j)^*, a]^* [(c_j U_j)^*, c]).

    Equals :func:`carre_du_champ` within rounding; in self-adjoint mode the
    two halves coincide and the sum doubles accordingly.
    """
    return reduce(add, (ad(a).adjoint() * ad(c) + ad_star(a).adjoint() * ad_star(c)
                        for ad, ad_star in zip(basis.ad, basis.ad_star)))


def dirichlet_form(a, b, basis: DifferentialBasis, trace_fn=None):
    """Quadratic form of the generator, reported both ways.

    Returns ``(generator_side, delta_side)`` where generator_side is
    tau(a^* Delta b) and delta_side is the trace of the first-order pairing
    over the covectors the mode actually has: both halves in complex mode
    (twice the generator side for a commuting normal basis), the unstarred
    half alone in self-adjoint mode (equal to the generator side).
    """
    tr = trace_fn or default_trace
    generator_side = tr(a.adjoint() * laplacian(b, basis))
    both = basis.mode == "complex"
    pairing = reduce(add, (ad(a).adjoint() * ad(b) + ad_star(a).adjoint() * ad_star(b) if both
                           else ad(a).adjoint() * ad(b)
                           for ad, ad_star in zip(basis.ad, basis.ad_star)))
    return generator_side, tr(pairing)


def locality_isometry(a, b, basis: DifferentialBasis) -> tuple:
    """Image of a (x) b under W: the 2n-tuple ([c_j U_j, a] b, [(c_j U_j)^*, a] b)."""
    if basis.mode != "complex":
        raise BasisModeError("locality isometry needs complex mode")
    head = tuple(ad(a) * b for ad in basis.ad)
    tail = tuple(ad_star(a) * b for ad_star in basis.ad_star)
    return head + tail


def isometry_check(a, b, c, d, basis: DifferentialBasis) -> float:
    """Defect of W as an inner-product-preserving map on simple tensors.

    Compares b^* carre(a, c) d with the componentwise pairing of W(a (x) b)
    and W(c (x) d); returns the carrier norm of the difference.
    """
    lhs = b.adjoint() * carre_du_champ(a, c, basis) * d
    wab = locality_isometry(a, b, basis)
    wcd = locality_isometry(c, d, basis)
    rhs = reduce(add, (u.adjoint() * v for u, v in zip(wab, wcd)))
    return (lhs - rhs).norm()
