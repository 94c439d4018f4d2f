"""Relative index of a pair of Hermitian projections.

Three routes are implemented for finite matrices: spectral counting of the
±1 eigenvalues of P − Q, odd-power traces Tr (P − Q)^(2n+1), and the Fedosov
trace difference for the compression of a unitary to the range of P.  For
exact finite-dimensional projections all three agree (and reduce to rank
arithmetic); for truncations of infinite-dimensional pairs the odd traces
converge to the index of the underlying operators while the raw value's
distance to the nearest integer measures the truncation quality.

A projection is kept as a stack of mode blocks (HermitianProjection.blocks).
A projection that commutes with the rotations of a polar grid has one block
per angular mode; any other projection is its dense matrix, the stack of
one block.  The nodes of the blocks may sit on the sites in another order
and with a phase each (a site map, HermitianProjection.sites and .phases):
the square lattice box keeps its rotation-mode blocks that way, while
.matrix stays the site-ordered matrix.  Every route reduces a pair of
projections with the same block layout and site map block by block.  Every
flux-inserted projection D P D*, for a diagonal unitary D, is formed from P
by conjugated: it keeps P's blocks when D shifts the angular mode, and it
carries P's residuals, widened by D's distance from the unit circle, instead
of measuring them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class HermitianProjection:
    """Hermitian idempotent operator, kept as a (k, n, n) stack of mode blocks.

    HermitianProjection(matrix) validates a square matrix, the stack of one
    block; from_blocks validates a stack of k angular-mode blocks.  On nodes
    ordered radial-major (index i*k + a for radius i and angle a) a
    rotation-invariant matrix is block-circulant in the angle index:
    M[(i,a),(j,b)] depends on i, j and (b - a) mod k only.  The DFT over the
    angle index turns it into k blocks B_q of size n x n, one per angular
    mode q, with

        M[(i,a),(j,b)] = (1/k) sum_q B_q[i,j] exp(-2 pi i q (b - a) / k).

    idempotency_tol bounds the allowed max-entry deviation of both M - M*
    and M² - M on the nodes, read off the distinct entries of the
    block-circulant matrices B_q - B_q* and B_q² - B_q.  Truncated continuum
    projections are not exactly idempotent; they carry a loose tolerance and
    the residuals are kept in hermitian_residual and idempotency_residual.

    sites and phases, None by default, place the nodes on the sites: node v
    is site sites[v] with phase phases[v], so the site-ordered matrix is
    S[sites[v], sites[w]] = phases[v] M[v, w] conj(phases[w]).  The
    residuals a producer records for such a projection are those of S.
    .matrix is the site-ordered matrix: the block itself for one block
    without a site map, else built on first access and cached; nodes() is
    the matrix on the nodes.  Pickling keeps the blocks and the site map;
    two projections are equal when their tolerances, blocks and site maps
    are.
    """

    # the identity site map, kept on the class so that a projection without a
    # site map holds no more attributes than its blocks and residuals
    sites = None
    phases = None

    def __init__(self, matrix: np.ndarray, idempotency_tol: float = 1e-10):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"projection matrix must be square, got {m.shape}")
        self._validate(m[None], idempotency_tol)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray, idempotency_tol: float = 1e-10):
        b = np.asarray(blocks)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise ValueError(
                f"mode blocks must have shape (k, n, n), got {b.shape}")
        proj = cls.__new__(cls)
        proj._validate(b, idempotency_tol)
        return proj

    @classmethod
    def with_residuals(cls, blocks: np.ndarray, idempotency_tol: float,
                       hermitian_residual: float, idempotency_residual: float,
                       sites=None, phases=None):
        """The (k, n, n) stack blocks, on the site map sites and phases when
        given, with residuals its producer has bounded from quantities it
        already holds, instead of measuring them; rejected like any
        projection when a residual exceeds idempotency_tol."""
        proj = cls.__new__(cls)
        proj._validate(np.asarray(blocks), idempotency_tol, hermitian_residual,
                       idempotency_residual)
        if sites is not None:
            proj.__dict__.update(sites=np.asarray(sites), phases=np.asarray(phases))
        return proj

    def _validate(self, b: np.ndarray, tol: float, herm=None, resid=None):
        """Keep the blocks b with their residuals, measured unless given."""
        if herm is None:
            herm, resid = _nodal_max(b - b.conj().swapaxes(-1, -2)), _nodal_max(b @ b - b)
        if not herm <= tol:
            raise ValueError(f"matrix is not Hermitian: max |M - M*| = {herm:.3e}")
        if not resid <= tol:
            raise ValueError(
                f"matrix is not idempotent within {tol:.1e}: max |M^2 - M| = {resid:.3e}"
            )
        self.__dict__.update(blocks=b, idempotency_tol=tol, hermitian_residual=herm,
                             idempotency_residual=resid, _matrix=None)

    @property
    def matrix(self) -> np.ndarray:
        if self.sites is None and self.blocks.shape[0] == 1:
            return self.blocks[0]
        if self._matrix is None:
            m = nodal_matrix(self.blocks)
            if self.sites is not None:
                node = np.argsort(self.sites)
                m = m[np.ix_(node, node)]
                phase = self.phases[node]
                m *= phase[:, None]
                m *= phase.conj()
            self.__dict__["_matrix"] = m
        return self._matrix

    def nodes(self) -> np.ndarray:
        """The N x N matrix on the nodes i*k + a: .matrix without a site
        map, else built from the blocks on each call."""
        return self.matrix if self.sites is None else nodal_matrix(self.blocks)

    def same_sites(self, other) -> bool:
        """Whether other places its nodes on the same sites with the same phases."""
        return all(a is b or (a is not None and b is not None and np.array_equal(a, b))
                   for a, b in ((self.sites, other.sites), (self.phases, other.phases)))

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a projection")

    def __getstate__(self):
        return dict(self.__dict__, _matrix=None)


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


def conjugated(P: HermitianProjection, d: np.ndarray) -> HermitianProjection:
    """D P D* for the diagonal unitary D = diag(d), the one place that forms it.

    d is given on the sites and read on P's nodes, d[P.sites] under a site
    map; Q keeps P's site map.  On P's k mode blocks (node i*k + a) a
    rotation character d = c[i] exp(2 pi i N a / k), within 1e-12, shifts the
    mode by N, and Q keeps the layout with the blocks C B_{q-N} C*.  On one
    block every d is one; any other d gives the dense matrix on the nodes,
    the stack of one.

    The residuals are carried, not measured: d passes check_unitary at 1e-10,
    eps = max_i ||d_i|^2 - 1| gives |d_i d_j| <= 1 + eps, and with E = D*D - 1,
    Q - Q* = D (P - P*) D* and Q^2 - Q = D (P^2 - P + P E P) D*.  So Q records
    (1 + eps) h_P and (1 + eps)(r_P + eps rho_P), for P's residuals h_P, r_P
    and largest squared row norm rho_P = max_i sum_{q,j} |B_q[i,j]|^2 / k
    (Parseval); it keeps P's tolerance and is rejected above it.
    """
    k, n, _ = P.blocks.shape
    d = np.asarray(d)
    if d.shape != (k * n,):
        raise ValueError(f"dimension mismatch: diagonal {d.shape}, projection {k * n}")
    check_unitary(d, 1e-10)
    eps = float(np.max(np.abs(np.abs(d) ** 2 - 1.0)))
    rho = float(np.max(np.sum(np.abs(P.blocks) ** 2, axis=(0, 2)))) / k
    if P.sites is not None:
        d = d[P.sites]
    v = d.reshape(n, k)
    c = v[:, 0]
    step = np.angle(v[0, 1 % k] * np.conj(c[0]))  # 0 on one block
    winding = int(round(step * k / (2.0 * np.pi))) % k
    phase = np.exp(2j * np.pi * winding * np.arange(k) / k)
    if np.max(np.abs(v - c[:, None] * phase[None, :])) <= 1e-12:
        blocks = np.roll(P.blocks, winding, axis=0) if winding else P.blocks
    else:
        blocks, c = P.nodes()[None], d
    return HermitianProjection.with_residuals(
        blocks * np.outer(c, c.conj()), P.idempotency_tol,
        (1.0 + eps) * P.hermitian_residual,
        (1.0 + eps) * (P.idempotency_residual + eps * rho), P.sites, P.phases)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square complex matrix validated to be unitary.

    The residual is the max-entry deviation of UU* from the identity.  A
    diagonal U gives it as max_i ||d_i|^2 - 1| without a matrix product and
    keeps its diagonal in .diagonal (None for any other U).  Two unitaries
    are equal when their tolerances and matrices are.
    """

    matrix: np.ndarray
    unitarity_tol: float = 1e-10
    diagonal: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        u = np.asarray(self.matrix)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"unitary matrix must be square, got {u.shape}")
        object.__setattr__(self, "diagonal", check_unitary(u, self.unitarity_tol))
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.unitarity_tol == other.unitarity_tol
                and bool(np.array_equal(self.matrix, other.matrix)))

    __hash__ = None


def check_unitary(u: np.ndarray, tol: float):
    """Reject U, the square matrix u or diag(u) for a vector u, unless the
    residual of UnitaryMatrix is <= tol (so NaN fails).  Returns the
    diagonal of a diagonal U, else None."""
    d = u if np.ndim(u) == 1 else _diagonal(u)
    if d is not None:
        resid = np.max(np.abs(np.abs(d) ** 2 - 1.0))
    else:
        resid = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not resid <= tol:
        raise ValueError(f"matrix is not unitary: max |UU* - 1| = {resid:.3e}")
    return d


def _diagonal(u: np.ndarray):
    """The diagonal of u when every off-diagonal entry is zero, else None."""
    d = np.diagonal(u)
    return d if np.count_nonzero(u) == np.count_nonzero(d) else None


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
    """P − Q as a stack (k, n, n), up to a diagonal unitary: its mode blocks
    when P and Q share a block layout and site map, the dense matrix on
    their nodes when they share only the site map, else the site-ordered
    matrix, each dense matrix as a stack of one."""
    _check_same_dim(P, Q)
    if not P.same_sites(Q):
        return (P.matrix - Q.matrix)[None]
    if P.blocks.shape == Q.blocks.shape:
        return P.blocks - Q.blocks
    return (P.nodes() - Q.nodes())[None]


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

    A diagonal U conjugates P through conjugated; when that keeps P's mode
    blocks, the compressions are reduced block by block.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_same_dim(P, U)
    d = U.diagonal
    if d is not None:
        upu = conjugated(P, d).blocks
        u_pu = conjugated(P, d.conj()).blocks
        p = P.blocks if upu.shape == P.blocks.shape else P.nodes()[None]
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
    return HermitianProjection(p, idempotency_tol=1e-10)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[None, :]
    return UnitaryMatrix(q, unitarity_tol=1e-10)
