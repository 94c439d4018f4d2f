"""Relative index of a pair of Hermitian projections.

Three routes are implemented for finite matrices: spectral counting of the
±1 eigenvalues of P − Q, odd-power traces Tr (P − Q)^(2n+1), and the Fedosov
trace difference for the compression of a unitary to the range of P.  For
exact finite-dimensional projections all three agree (and reduce to rank
arithmetic); for truncations of infinite-dimensional pairs the odd traces
converge to the index of the underlying operators while the raw value's
distance to the nearest integer measures the truncation quality.

A projection is kept as a stack of mode blocks (HermitianProjection.blocks).
Its one constructor takes a square matrix as the stack of one block; it
measures the projection's two residuals, or carries both when the producer
passes them in, and refuses either above the tolerance.  A projection
that commutes with the rotations of a polar grid has one block per angular
mode; any other projection is its dense matrix, the stack of one block.
The nodes of the blocks may sit on the sites in another order (a site
map, HermitianProjection.sites): the square lattice box keeps its
rotation-mode blocks that way, while .matrix stays the site-ordered
matrix.  Every route reduces a pair of projections with the same block
layout and site map block by block, and any other pair on its
site-ordered matrices.  UnitaryMatrix is the one validated unitary,
checked once, when it is built; a diagonal one keeps only its diagonal,
never an N x N array.  Every flux-inserted pair (P, D P D*), for a
diagonal UnitaryMatrix D, is formed by conjugated on one layout: P's
blocks when D shifts the angular mode, else P's matrix on the nodes,
built once.  Q carries P's residuals, widened by the residual D measured
when it was built, instead of measuring them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

# max-entry deviation of UU* from the identity that a UnitaryMatrix accepts
_UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HermitianProjection:
    """Hermitian idempotent operator, kept as a (k, n, n) stack of mode blocks.

    blocks is a (k, n, n) stack of k angular-mode blocks, or a square
    matrix, kept as the stack of one block.  On nodes ordered radial-major
    (index i*k + a for radius i and angle a) a rotation-invariant matrix is
    block-circulant in the angle index: M[(i,a),(j,b)] depends on i, j and
    (b - a) mod k only.  The DFT over the angle index turns it into k blocks
    B_q of size n x n, one per angular mode q, with

        M[(i,a),(j,b)] = (1/k) sum_q B_q[i,j] exp(-2 pi i q (b - a) / k).

    idempotency_tol bounds the allowed max-entry deviation of both M - M*
    and M² - M on the nodes, kept in hermitian_residual and
    idempotency_residual.  Given neither, they are measured, read off the
    distinct entries of the block-circulant matrices B_q - B_q* and
    B_q² - B_q.  Given both, they are carried: a producer that has bounded
    them from quantities it already holds passes them in instead.  Either
    way a residual above idempotency_tol is refused.  Truncated continuum
    projections are not exactly idempotent; they carry a loose tolerance.

    sites, None by default, places the nodes on the sites: node v is site
    sites[v], so the site-ordered matrix is S[sites[v], sites[w]] = M[v, w];
    a sites that is not a permutation of range(dim) is refused.
    The residuals a producer records for such a projection are those of S.
    .matrix is the site-ordered matrix: the block itself for one block
    without a site map, else built on first access and cached.  Pickling
    keeps the blocks and the site map; two projections are equal when their
    tolerances, blocks and site maps are.
    """

    blocks: np.ndarray
    idempotency_tol: float = 1e-10
    hermitian_residual: Optional[float] = None
    idempotency_residual: Optional[float] = None
    sites: Optional[np.ndarray] = None

    def __post_init__(self):
        b = np.asarray(self.blocks)
        b = b[None] if b.ndim == 2 else b
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise ValueError("projection must be a square matrix or a (k, n, n) "
                             f"stack of square blocks, got {np.shape(self.blocks)}")
        herm, resid, tol = (self.hermitian_residual, self.idempotency_residual,
                            self.idempotency_tol)
        if (herm is None) != (resid is None):
            raise ValueError("give both residuals to carry them, or neither to measure them")
        if herm is None:
            herm, resid = _nodal_max(b - b.conj().swapaxes(-1, -2)), _nodal_max(b @ b - b)
        if not herm <= tol:
            raise ValueError(f"matrix is not Hermitian: max |M - M*| = {herm:.3e}")
        if not resid <= tol:
            raise ValueError(
                f"matrix is not idempotent within {tol:.1e}: max |M^2 - M| = {resid:.3e}"
            )
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "hermitian_residual", herm)
        object.__setattr__(self, "idempotency_residual", resid)
        if self.sites is not None:
            s, n = np.asarray(self.sites), b.shape[0] * b.shape[1]
            # in range, then each site once: O(N)
            if not (s.shape == (n,) and s.dtype.kind in "iu" and np.all((0 <= s) & (s < n))
                    and np.bincount(s.astype(np.intp), minlength=n).all()):
                raise ValueError(f"site map must be a permutation of range({n})")
            object.__setattr__(self, "sites", s)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = nodal_matrix(self.blocks)
        if self.sites is not None:
            node = np.argsort(self.sites)
            m = m[np.ix_(node, node)]
        return m

    def same_sites(self, other) -> bool:
        """Whether other places its nodes on the same sites."""
        a, b = self.sites, other.sites
        return a is b or (a is not None and b is not None and np.array_equal(a, b))

    @property
    def dim(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    def rank(self) -> int:
        return int(round(float(np.trace(self.blocks, axis1=1, axis2=2).sum().real)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.idempotency_tol == other.idempotency_tol
                and bool(np.array_equal(self.blocks, other.blocks))
                and self.same_sites(other))

    __hash__ = None

    def __repr__(self) -> str:
        a_count, r_count, _ = self.blocks.shape
        return (f"HermitianProjection(modes={a_count}, block={r_count}, "
                f"idempotency_residual={self.idempotency_residual:.3e})")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "matrix"}


def nodal_blocks(blocks: np.ndarray) -> np.ndarray:
    """The k nodal blocks N_t[i, j] = M[(i, a), (j, a + t)] of the
    block-circulant matrix M with the (k, n, n) mode blocks blocks, fft(B)/k;
    one block is its own nodal block."""
    return blocks if blocks.shape[0] == 1 else np.fft.fft(blocks, axis=0) / blocks.shape[0]


def nodal_matrix(blocks: np.ndarray) -> np.ndarray:
    """The N x N matrix on the nodes i*k + a with the mode blocks blocks;
    one block is the matrix itself."""
    a_count, r_count, _ = blocks.shape
    if a_count == 1:
        return blocks[0]
    nodal = nodal_blocks(blocks)
    angle = np.arange(a_count)
    shift = (angle[None, :] - angle[:, None]) % a_count
    # nodal[shift] is indexed [a, b, i, j]; the nodes are i*A + a
    return nodal[shift].transpose(2, 0, 3, 1).reshape(r_count * a_count,
                                                      r_count * a_count)


def _nodal_max(blocks: np.ndarray) -> float:
    """Max |entry| of the block-circulant matrix with the given mode blocks.

    One block is the matrix itself: its transform is the identity.
    """
    if blocks.shape[0] == 1:
        return float(np.max(np.abs(blocks)))
    return float(np.max(np.abs(np.fft.fft(blocks, axis=0)))) / blocks.shape[0]


def conjugated(P: HermitianProjection, U: UnitaryMatrix) -> tuple:
    """The pair (P, D P D*) on one block layout, for the diagonal unitary
    U = D = diag(d), d = U.diagonal: the one place that forms it.

    d is given on the sites and read on P's nodes, d[P.sites] under a site
    map; both keep P's site map.  On P's k mode blocks (node i*k + a) a
    rotation character d = c[i] exp(2 pi i N a / k), within 1e-12, shifts the
    mode by N: the pair is P itself and Q on the blocks C B_{q-N} C*.  On one
    block every d is one.  Any other d builds P's matrix on the nodes once,
    and the pair is that matrix, with P's residuals, and Q formed from it,
    each the stack of one.  A U that is not diagonal is refused.

    The residuals are carried, not measured: U carries its validated
    eps = max_i ||d_i|^2 - 1|, which gives |d_i d_j| <= 1 + eps, and with
    E = D*D - 1, Q - Q* = D (P - P*) D* and Q^2 - Q = D (P^2 - P + P E P) D*.
    So Q records (1 + eps) h_P and (1 + eps)(r_P + eps rho_P), for P's
    residuals h_P, r_P and largest squared row norm
    rho_P = max_i sum_{q,j} |B_q[i,j]|^2 / k (Parseval); it keeps P's
    tolerance and is rejected above it.
    """
    if U.diagonal is None:
        raise ValueError("conjugated needs a diagonal unitary")
    _check_same_dim(P, U)
    return _conjugated(P, U.diagonal, U.residual)


def _conjugated(P: HermitianProjection, d: np.ndarray, eps: float) -> tuple:
    """conjugated for the validated diagonal d with residual eps."""
    k = P.blocks.shape[0]
    rho = float(np.max(np.sum(np.abs(P.blocks) ** 2, axis=(0, 2)))) / k
    if P.sites is not None:
        d = d[P.sites]
    v = d.reshape(-1, k)
    c = v[:, 0]
    step = np.angle(v[0, 1 % k] * np.conj(c[0]))  # 0 on one block
    winding = int(round(step * k / (2.0 * np.pi))) % k
    phase = np.exp(2j * np.pi * winding * np.arange(k) / k)
    if np.max(np.abs(v - c[:, None] * phase[None, :])) <= 1e-12:
        blocks = np.roll(P.blocks, winding, axis=0) if winding else P.blocks
    else:
        # without a site map the node matrix is P's cached .matrix
        nodes = P.matrix if P.sites is None else nodal_matrix(P.blocks)
        P = HermitianProjection(nodes, P.idempotency_tol, P.hermitian_residual,
                                P.idempotency_residual, P.sites)
        blocks, c = P.blocks, d
    return P, HermitianProjection(
        blocks * np.outer(c, c.conj()), P.idempotency_tol,
        (1.0 + eps) * P.hermitian_residual,
        (1.0 + eps) * (P.idempotency_residual + eps * rho), P.sites)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Unitary U, validated once, when it is built; a diagonal U is kept as
    its diagonal.

    matrix is a square matrix or, for a diagonal U, its diagonal d.  A
    square matrix with nothing off its diagonal is diagonal too; only a
    copy of its diagonal is kept.  A diagonal U keeps d in .diagonal, and
    its .matrix is None: no N x N array is held.  Any other U keeps .matrix,
    and its .diagonal is None.  residual is the max-entry deviation of UU*
    from the identity, read as max_i ||d_i|^2 - 1| on a diagonal U, without
    a matrix product; a residual above _UNITARITY_TOL is refused (so NaN
    fails).  center and site_array, None unless given, place the diagonal
    on a lattice: the flux centre and the (N, 2) site positions of
    lattice.lattice_flux_unitary.  Two unitaries are equal when their
    arrays and geometry are.
    """

    matrix: Optional[np.ndarray]
    center: Optional[tuple] = None
    site_array: Optional[np.ndarray] = None
    diagonal: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    residual: float = field(init=False, default=None)

    def __post_init__(self):
        u = np.asarray(self.matrix)
        if u.ndim != 1 and (u.ndim != 2 or u.shape[0] != u.shape[1]):
            raise ValueError(f"unitary must be a square matrix or its diagonal, got {u.shape}")
        d = u if u.ndim == 1 else _diagonal(u)
        if d is not None:
            resid = np.max(np.abs(np.abs(d) ** 2 - 1.0))
            u = None
        else:
            resid = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
        if not resid <= _UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |UU* - 1| = {resid:.3e}")
        object.__setattr__(self, "matrix", u)
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "residual", float(resid))

    @property
    def dim(self) -> int:
        return len(self.diagonal) if self.matrix is None else self.matrix.shape[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in (
            "center", "matrix", "diagonal", "site_array"))

    __hash__ = None


def _diagonal(u: np.ndarray):
    """A copy of the diagonal of u when every off-diagonal entry is zero,
    else None."""
    d = np.diagonal(u)
    return d.copy() if np.count_nonzero(u) == np.count_nonzero(d) else None


@dataclass(frozen=True)
class IndexReport:
    """Raw index value with its method and distance from the nearest integer.

    Spectral counting always returns an exact integer (residual 0).  Trace
    methods return the raw real value; rounding is left to the caller so that
    truncation error stays visible.  imag_part records the magnitude of the
    imaginary component discarded from the raw trace.  trace_power is the
    traced exponent: 2n+1 for odd traces, n+1 for Fedosov, 0 for counting.
    """

    value: float
    method: str
    trace_power: int
    residual: float
    imag_part: float = 0.0

    def rounded(self) -> int:
        return int(round(self.value))


def trace_report(t: complex, method: str, trace_power: int) -> IndexReport:
    """The report of a raw trace t: its real part, unrounded."""
    value = float(t.real)
    return IndexReport(value=value, method=method, trace_power=trace_power,
                       residual=abs(value - round(value)), imag_part=abs(t.imag))


def _check_same_dim(*ops):
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")


def difference(P: HermitianProjection, Q: HermitianProjection) -> np.ndarray:
    """P − Q as a stack (k, n, n), up to the order of the nodes: its mode blocks
    when P and Q share a block layout and site map, as the pair from
    conjugated does, else the site-ordered matrix as a stack of one."""
    _check_same_dim(P, Q)
    if P.same_sites(Q) and P.blocks.shape == Q.blocks.shape:
        return P.blocks - Q.blocks
    return (P.matrix - Q.matrix)[None]


def _power_traces(A: np.ndarray, step: np.ndarray, count: int) -> list:
    """[Tr A S^j for j = 0..count-1] for S = step, each summed over the stack.

    A and step are stacks (k, n, n) of matrices; the last power is never
    formed, its trace is read off the product of the previous one with A.
    """
    out = [complex(np.trace(A, axis1=-2, axis2=-1).sum())]
    X = None
    for _ in range(count - 1):
        X = step if X is None else X @ step
        out.append(complex(np.einsum("kij,kji->", X, A)))
    return out


def index_by_spectral_count(P: HermitianProjection, Q: HermitianProjection) -> IndexReport:
    """Count eigenvalues of P − Q at +1 minus those at −1.

    Eigenvalues of a difference of projections lie in [−1, 1] and the ±1
    eigenspaces are what the relative index counts.  Each eigenvalue is
    assigned to the nearest of {−1, 0, +1} (within 0.5 of ±1 counts), which
    is the right notion for truncated pairs and exact for exact ones.  A
    pair of mode-block projections is diagonalized block by block.
    """
    evals = np.linalg.eigvalsh(difference(P, Q)).ravel()
    near_plus = np.abs(evals - 1.0) <= 0.5
    near_minus = np.abs(evals + 1.0) <= 0.5
    value = int(near_plus.sum()) - int(near_minus.sum())
    return IndexReport(value=value, method="spectral-count", trace_power=0, residual=0.0)


def _odd_traces(P: HermitianProjection, Q: HermitianProjection, n_max: int) -> list:
    """Tr (P − Q)^(2n+1) for n = 0..n_max."""
    M = difference(P, Q)
    return _power_traces(M, M @ M if n_max >= 1 else None, n_max + 1)


def index_by_odd_trace(P: HermitianProjection, Q: HermitianProjection,
                       n: int = 1) -> IndexReport:
    """Tr (P − Q)^(2n+1), equal to the relative index when the difference
    is trace class of order 2n+1.

    In finite dimension the value is exactly rank P − rank Q for every n.
    A pair of mode-block projections is reduced block by block.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return trace_report(_odd_traces(P, Q, n)[-1], "odd-trace", 2 * n + 1)


def odd_trace_stability(P: HermitianProjection, Q: HermitianProjection,
                        n_max: int) -> list:
    """Tr (P − Q)^(2n+1) for n = 0..n_max, as (n, value) pairs.

    Successive entries agree exactly in finite dimension; for truncated pairs
    the spread measures how far the truncation is from the trace-class
    regime.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [(n, t.real) for n, t in enumerate(_odd_traces(P, Q, n_max))]


def index_by_fedosov(P: HermitianProjection, U: UnitaryMatrix, n: int = 1) -> IndexReport:
    """Fedosov trace difference for the compression of U to the range of P.

    Returns Tr (P − P U P U* P)^(n+1) − Tr (P − P U* P U P)^(n+1).  For a pair
    of exact projections (P, UPU*) this equals the relative index, which is
    zero in finite dimension.  Unlike the odd trace, the formula is sensitive
    to non-idempotency of a truncated P: the compression picks up an O(1)
    boundary contribution that does not vanish with the truncation radius, so
    its value on truncated pairs is reported raw, never rounded silently.

    A diagonal U conjugates P as conjugated does: the first call puts P and
    UPU* on one layout, building P's node matrix at most once, and U*PU is
    formed on that layout from the same diagonal, not validated again.  When it is P's
    mode blocks, the compressions are reduced block by block.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_same_dim(P, U)
    d = U.diagonal
    if d is not None:
        P, Q = _conjugated(P, d, U.residual)
        p, upu, u_pu = P.blocks, Q.blocks, _conjugated(P, d.conj(), U.residual)[1].blocks
    else:
        u = U.matrix
        upu = (u @ P.matrix @ u.conj().T)[None]
        u_pu = (u.conj().T @ P.matrix @ u)[None]
        p = P.matrix[None]
    X = p - p @ upu @ p
    Y = p - p @ u_pu @ p
    t = _power_traces(X, X, n + 1)[-1] - _power_traces(Y, Y, n + 1)[-1]
    return trace_report(t, "fedosov", n + 1)


def additivity_check(P: HermitianProjection, Q: HermitianProjection,
                     R: HermitianProjection) -> tuple:
    """Index(P,R) against Index(P,Q) + Index(Q,R) by spectral counting."""
    _check_same_dim(P, Q, R)
    lhs = index_by_spectral_count(P, R).value
    rhs = index_by_spectral_count(P, Q).value + index_by_spectral_count(Q, R).value
    return int(lhs), int(rhs)


def random_projection(rng: np.random.Generator, dim: int, rank: int) -> HermitianProjection:
    """Rank-k projection onto the span of k columns of a Haar unitary."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [0, {dim}]")
    if rank == 0:
        return HermitianProjection(np.zeros((dim, dim), dtype=complex))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :rank]
    p = v @ v.conj().T
    p = 0.5 * (p + p.conj().T)
    return HermitianProjection(p)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[None, :]
    return UnitaryMatrix(q)
