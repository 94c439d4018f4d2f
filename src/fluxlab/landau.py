"""Landau-level machinery: basis states, projection kernels, flux matrices.

Everything is expressed in symmetric-gauge coordinates scaled so the field
strength is 2: the level-m projection kernel is then
p_m(x, y) = exp(-i x^y) q_m(|y-x|^2) exp(-|y-x|^2 / 2) with x^y the planar
cross product, q_m a degree-m polynomial with q_m(0) = 1/pi, and the density
of states per unit area is 1/pi.  Raising operators are applied symbolically
once and the resulting monomial coefficient tables are cached.
Every plane integral runs on a polar grid of fluxlab.grids, whose disk
builders (DiskGrid, polar_disk_grid, level_disk_*) this module re-exports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from fluxlab.gauge import GaugeUnitary
from fluxlab.grids import (DiskGrid, gauss_legendre, level_disk_grid,  # noqa: F401
                           level_disk_radius, polar_disk_grid, polar_nodes)
from fluxlab.projpair import HermitianProjection, check_unitary, conjugated

logger = logging.getLogger(__name__)

_NORMALIZATION_NOTED = set()


@lru_cache(maxsize=None)
def _raised_monomials(n: int, m: int) -> tuple:
    """Coefficient table of the polynomial part of the (n, m) state.

    The state is a polynomial in (z, conj z) times exp(-|z|^2/2), obtained by
    applying the raising operator m times to z^n exp(-|z|^2/2).  On the
    polynomial part one application acts as q -> -dq/dz + conj(z) q.  Returns
    ((a, b, coeff), ...) for the monomials coeff * z^a * conj(z)^b.
    """
    terms = {(n, 0): 1.0}
    for _ in range(m):
        nxt = {}
        for (a, b), c in terms.items():
            if a >= 1:
                key = (a - 1, b)
                nxt[key] = nxt.get(key, 0.0) - c * a
            key = (a, b + 1)
            nxt[key] = nxt.get(key, 0.0) + c
        terms = nxt
    return tuple(sorted((a, b, c) for (a, b), c in terms.items()))


def _norm_constant(n: int, m: int) -> float:
    # Numerically enforced normalization: the squared plane-integral norm of
    # the raised state is pi * n! * m!.
    return 1.0 / math.sqrt(math.pi * math.factorial(n) * math.factorial(m))


def _note_normalization(n: int, m: int):
    if m >= 1 and (n, m) not in _NORMALIZATION_NOTED:
        _NORMALIZATION_NOTED.add((n, m))
        logger.info(
            "normalization of state (n=%d, m=%d) enforced numerically as "
            "(pi n! m!)^(-1/2); the (m+1)! variant fails the norm identity",
            n, m,
        )


def _as_complex_points(z) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim >= 1 and z.shape[-1] == 2 and not np.iscomplexobj(z):
        return z[..., 0] + 1j * z[..., 1]
    return z.astype(complex)


def basis_wavefunction(n: int, m: int, z) -> np.ndarray:
    """Normalized level-m angular-momentum-n state at z (complex or (..,2)).

    Normalization is enforced numerically (unit norm under the plane
    integral), giving the constant (pi n! m!)^(-1/2).
    """
    if n < 0 or m < 0:
        raise ValueError(f"state indices must be nonnegative, got n={n}, m={m}")
    _note_normalization(n, m)
    zc = _as_complex_points(z)
    zb = np.conj(zc)
    val = np.zeros_like(zc, dtype=complex)
    for a, b, c in _raised_monomials(n, m):
        val = val + c * zc ** a * zb ** b
    return _norm_constant(n, m) * val * np.exp(-np.abs(zc) ** 2 / 2.0)


@lru_cache(maxsize=None)
def _kernel_radial_coeffs(m: int) -> tuple:
    """Coefficients r_k with p_m(0, z) = sum_k r_k t^k exp(-t/2), t = |z|^2.

    Derived from the (m, m) state table: only that state is nonzero at the
    origin, so the kernel at the origin is psi(0) * conj(psi(z)), whose
    polynomial part depends on t alone.
    """
    coeffs = np.zeros(m + 1)
    for a, b, c in _raised_monomials(m, m):
        if a != b:
            raise AssertionError("diagonal state table must be radial")
        coeffs[a] += c
    norm_sq = 1.0 / (math.pi * math.factorial(m) ** 2)
    return tuple(norm_sq * coeffs[0] * coeffs)


@dataclass(frozen=True)
class CovariantKernel:
    """Projection kernel p(x, y), translation invariant up to a gauge phase.

    evaluate broadcasts over trailing-dimension-2 point arrays.  A kernel may
    record its closed form instead of an evaluate callable:

        p(x, y) = exp(-i x^y) sum_k radial[k] t^k exp(-t/2),  t = |y - x|^2,

    with the magnetic phase exp(-i x^y) only when ``magnetic`` is set.  Such
    a kernel builds evaluate from the record, and axis_factors splits the
    same record along the two axes of a tensor grid, so the dense and the
    separable engines read one formula.  A kernel given as a bare evaluate
    callable has no record (radial is None) and is only ever evaluated.
    """

    level: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] = None
    radial: tuple = None
    magnetic: bool = False

    def __post_init__(self):
        if self.radial is None:
            if self.evaluate is None:
                raise ValueError("a kernel needs an evaluate callable or a closed form")
            return
        if self.evaluate is not None:
            raise ValueError("a kernel with a recorded closed form builds its own evaluate")
        radial = tuple(float(c) for c in self.radial)
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "evaluate", _closed_form_evaluate(radial, self.magnetic))

    def __call__(self, x, y) -> np.ndarray:
        return self.evaluate(x, y)

    def pair_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """All-pairs kernel matrix for node sets X (N,2) and Y (K,2)."""
        return self.evaluate(X[:, None, :], Y[None, :, :])

    def axis_factors(self, u: np.ndarray, v: np.ndarray):
        """The recorded closed form split along the axes of the grid (u, v).

        For x = (u_a, v_b) and y = (u_c, v_d),

            p(x, y) = ph_uv[a, d] ph_vu[b, c] sum_i F_i[a, c] G_i[b, d]

        with the phases ph_uv = exp(-i u_a v_d) and ph_vu = exp(i v_b u_c)
        (ones without the magnetic phase), F_i = s^(2i) exp(-s^2/2) for
        s = u_a - u_c, and G_i = sum_{k >= i} radial[k] C(k, i) s^(2(k-i))
        exp(-s^2/2) for s = v_b - v_d: the binomial expansion of
        t^k = (s_u^2 + s_v^2)^k with the coefficients folded into G.
        Returns (ph_uv, ph_vu, [(F_0, G_0), ..., (F_m, G_m)]).
        """
        if self.radial is None:
            raise ValueError("kernel records no closed form")
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        su = (u[:, None] - u[None, :]) ** 2
        sv = (v[:, None] - v[None, :]) ** 2
        eu = np.exp(-su / 2.0)
        ev = np.exp(-sv / 2.0)
        top = len(self.radial)
        terms = []
        for i in range(top):
            F = eu * su ** i
            G = sum(self.radial[k] * math.comb(k, i) * sv ** (k - i)
                    for k in range(i, top)) * ev
            terms.append((F, G))
        if self.magnetic:
            ph_uv = np.exp(-1j * np.outer(u, v))
            ph_vu = np.exp(1j * np.outer(v, u))
        else:
            ph_uv = np.ones((len(u), len(v)))
            ph_vu = np.ones((len(v), len(u)))
        return ph_uv, ph_vu, terms


def _closed_form_evaluate(radial: tuple, magnetic: bool):
    """evaluate for the closed form recorded on CovariantKernel."""
    coeffs = np.array(radial)

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if magnetic:
            wedge = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
        d1 = y[..., 0] - x[..., 0]
        d2 = y[..., 1] - x[..., 1]
        t = d1 * d1 + d2 * d2
        poly = np.zeros_like(t)
        for c in coeffs[::-1]:
            poly = poly * t + c
        if not magnetic:
            return poly * np.exp(-t / 2.0)
        return np.exp(-1j * wedge) * poly * np.exp(-t / 2.0)

    return evaluate


def landau_kernel(m: int) -> CovariantKernel:
    """Closed-form level-m projection kernel.

    The kernel records the radial coefficients of the cached coefficient
    tables with the magnetic phase.
    """
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    radial = _kernel_radial_coeffs(m)
    return CovariantKernel(level=m, radial=radial, magnetic=True)


def real_surrogate_kernel() -> CovariantKernel:
    """Real gaussian control kernel (1/pi) exp(-|x-y|^2/2).

    Time-reversal invariant (real symmetric), so every index quantity built
    from it must vanish.  It is not a reproducing projection kernel; it
    exists purely as the symmetry control.  It records the closed form
    radial = (1/pi,) without the magnetic phase.
    """
    return CovariantKernel(level=0, radial=(1.0 / math.pi,))


def gram_matrix(m1: int, m2: int, n_max: int) -> np.ndarray:
    """Quadrature Gram matrix between levels m1 and m2, angular momenta
    0..n_max.  Identity for m1 = m2, zero for m1 != m2."""
    t_max = 2.0 * (n_max + m1 + m2) + 60.0
    # summed over the ring, the integrand is a polynomial in t = r^2 times
    # exp(-t), so the radial rule runs in t, where the area element is dt/2
    t, wt = gauss_legendre(0.0, t_max, max(160, int(1.5 * t_max)))
    z, w = polar_nodes(0.0, np.sqrt(t), 0.5 * wt, 256)
    z, w = z.ravel(), w.ravel()
    psi1 = np.column_stack([basis_wavefunction(n, m1, z) for n in range(n_max + 1)])
    psi2 = np.column_stack([basis_wavefunction(n, m2, z) for n in range(n_max + 1)])
    return psi1.conj().T @ (w[:, None] * psi2)


def flux_matrix(m: int, n_max: int) -> np.ndarray:
    """Matrix of the unit flux unitary z/|z| between level-m states.

    Angular momentum selection confines the matrix to the single diagonal
    offset column = row - 1; an off-pattern residual above 1e-8 means the
    quadrature did not converge and is reported as an error.
    """
    if m < 0 or n_max < 0:
        raise ValueError("level and angular cutoff must be nonnegative")
    t_max = 2.0 * (n_max + 2 * m) + 60.0
    radial_nodes = max(160, int(1.5 * t_max))
    # the unitary brings odd powers of r into the integrand, so integrate in
    # r itself (entire integrand, spectral convergence) rather than t = r^2
    grid = polar_disk_grid(np.sqrt(t_max), radial_nodes, 256)
    z = _as_complex_points(grid.nodes)
    u = z / np.abs(z)
    psi = np.column_stack([basis_wavefunction(n, m, z) for n in range(n_max + 1)])
    mat = psi.conj().T @ ((grid.weights * u)[:, None] * psi)
    # admissible entries sit at (n, n') = (k+1, k)
    pattern = np.eye(n_max + 1, k=-1, dtype=bool)
    resid = float(np.max(np.abs(np.where(pattern, 0.0, mat))))
    if resid > 1e-8:
        raise ValueError(
            f"flux matrix off-pattern residual {resid:.3e} exceeds 1.0e-08; "
            "quadrature did not converge"
        )
    return mat


def shift_index(M: np.ndarray) -> int:
    """Fredholm index of the semi-infinite shift operator truncated as M.

    Scans all diagonal offsets for the unique one carrying every entry above
    1e-8 and returns that offset (column minus row).  A matrix admitting
    no offset is not a shift matrix; one admitting several (the zero matrix)
    is ambiguous.  Both are rejected.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"shift matrix must be square, got {M.shape}")
    dim = M.shape[0]
    rows, cols = np.indices(M.shape)
    offsets = cols - rows
    admissible = []
    for i in range(-(dim - 1), dim):
        off_pattern = np.abs(np.where(offsets == i, 0.0, M))
        if np.max(off_pattern) <= 1e-8:
            admissible.append(i)
    if not admissible:
        raise ValueError("no admissible diagonal offset: not a shift matrix")
    if len(admissible) > 1:
        raise ValueError(
            f"ambiguous shift pattern, admissible offsets {admissible} "
            "(matrix is numerically zero)"
        )
    return admissible[0]


def truncated_projection_pair(m: int, u: GaugeUnitary, grid: DiskGrid = None):
    """Disk truncation of the level-m projection and its flux conjugate.

    Returns (P, Q) with P the quadrature-symmetrized kernel matrix
    sqrt(w_j) p(x_j, x_k) sqrt(w_k) and Q = D P D* for the diagonal D of
    u(x_j).  P is only approximately idempotent: the truncation boundary
    carries an eigenvalue cloud between 0 and 1, and that cloud is exactly
    what lets the pair carry a nonzero odd trace (exact finite projections
    related by a unitary always trace to zero).  P's measured residuals and
    Q's carried bounds are attached to the returned projections; a residual
    above 0.05 means the truncation is too coarse and is an error.

    P's layout follows the grid alone: the kernel is rotation invariant
    about the origin, so on a grid that records a polar layout (R radii x A
    angles) P is block-circulant in the angle index and is kept as A blocks
    of size R x R, one per angular mode, computed from the R x N kernel
    entries of the first angular column; on any other grid it is the dense
    N x N matrix, the stack of one block.  Only P is validated: Q is
    projpair.conjugated(P, u on the nodes), which carries P's residuals and
    keeps its blocks for a centred (z/|z|)^N; a translated flux gives a
    dense Q.  A u not unimodular on the nodes is an error.

    Without a grid the disk is level_disk_grid(m), a larger disk for higher
    levels, since a larger disk, not a finer grid, is what brings the odd
    trace Tr (Q - P)^3 to the index.  Measured with flux_unitary(1) on
    2 cores (OpenBLAS), time and peak memory of the pair plus its odd trace
    in a fresh process on the block engine (dense engine in brackets; the
    peak includes the 27 MB of the numpy import):

    - m = 0: radius 8, 40 x 72 nodes (N = 2880), -0.99578,
      0.04 s, 43 MB (7 s, 0.7 GB);
    - m = 1: radius 11, 48 x 90 nodes (N = 4320), -0.99215,
      0.07 s, 50 MB (19 s, 1.5 GB);
    - m = 2: radius 14, 56 x 108 nodes (N = 6048), -0.99148,
      0.1 s, 62 MB (49 s, 2.8 GB).

    Every value is within 1e-2 of -1.  Block time grows as R^3 A and memory
    as R^2 A; the dense engine's as N^3 and N^2.  No test covers the default
    disk above m = 2.
    """
    if grid is None:
        grid = level_disk_grid(m)
    uvals = u.evaluate(grid.nodes)
    if np.any(~np.isfinite(uvals)):
        raise ValueError("gauge unitary is singular on a grid node")
    try:
        check_unitary(uvals, 1e-10)
    except ValueError as exc:
        raise ValueError(f"gauge unitary is not unimodular on the grid: {exc}") from None
    if grid.has_polar_layout():
        R, A = grid.radial_nodes, grid.angular_nodes
    else:
        R, A = len(uvals), 1
    sw = np.sqrt(grid.weights[::A])
    # K[i, j, d] = p(x_{i,0}, x_{j,d}), the entry P[(i,a),(j,a+d)] before weighting
    K = landau_kernel(m).pair_matrix(grid.nodes[::A], grid.nodes).reshape(R, R, A)
    K *= sw[:, None, None]
    K *= sw[None, :, None]
    if A > 1:
        K = A * np.fft.ifft(K, axis=2)
    B = np.moveaxis(K, 2, 0)
    B = 0.5 * (B + B.conj().swapaxes(1, 2))
    try:
        proj_p = HermitianProjection.from_blocks(B, 0.05)
    except ValueError as exc:
        raise ValueError(f"truncation too coarse: {exc}") from None
    return proj_p, conjugated(proj_p, uvals)
