"""Landau-level machinery: basis states, projection kernels, flux matrices.

Everything is expressed in symmetric-gauge coordinates scaled so the field
strength is 2: the level-m projection kernel is then
p_m(x, y) = exp(-i x^y) q_m(|y-x|^2) exp(-|y-x|^2 / 2) with x^y the planar
cross product, q_m a degree-m polynomial with q_m(0) = 1/pi, and the density
of states per unit area is 1/pi.  States and kernels come from one closed
form, the generalized Laguerre polynomial: q_m = L_m / pi, and the (n, m)
state carries L_min(n,m)^(|n-m|)(|z|^2).
Every plane integral runs on a polar grid of fluxlab.grids, whose disk
builders (DiskGrid, polar_disk_grid, level_disk_*) this module re-exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fluxlab.gauge import GaugeUnitary
from fluxlab.grids import (DiskGrid, gauss_legendre, level_disk_grid,  # noqa: F401
                           level_disk_radius, polar_disk_grid, polar_nodes)
from fluxlab.projpair import HermitianProjection, UnitaryMatrix, conjugated


def _laguerre(k: int, alpha: int) -> tuple:
    """Coefficients of the generalized Laguerre polynomial L_k^(alpha)(t),
    lowest power first: (-1)^j C(k + alpha, k - j) / j!."""
    return tuple((-1) ** j * math.comb(k + alpha, k - j) / math.factorial(j)
                 for j in range(k + 1))


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k, lowest power first, by Horner's rule."""
    poly = np.zeros_like(t)
    for c in coeffs[::-1]:
        poly = poly * t + c
    return poly


def _as_complex_points(z) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim >= 1 and z.shape[-1] == 2 and not np.iscomplexobj(z):
        return z[..., 0] + 1j * z[..., 1]
    return z.astype(complex)


def basis_wavefunction(n: int, m: int, z) -> np.ndarray:
    """Normalized level-m angular-momentum-n state at z (complex or (..,2)).

    The state the raising operator builds m times from z^n exp(-|z|^2/2),
    in closed form: with lo = min(n, m), hi = max(n, m), d = hi - lo and
    t = |z|^2 it is

        (-1)^lo sqrt(lo! / (pi hi!)) w^d L_lo^(d)(t) exp(-t/2),

    with w = z for n >= m and conj(z) otherwise, and unit norm under the
    plane integral.
    """
    if n < 0 or m < 0:
        raise ValueError(f"state indices must be nonnegative, got n={n}, m={m}")
    zc = _as_complex_points(z)
    lo, hi = min(n, m), max(n, m)
    t = zc.real * zc.real + zc.imag * zc.imag
    norm = (-1) ** lo * math.sqrt(math.factorial(lo) / (math.pi * math.factorial(hi)))
    val = norm * _horner(_laguerre(lo, hi - lo), t) * np.exp(-t / 2.0)
    if hi == lo:
        return val.astype(complex)
    return val * (zc if n >= m else np.conj(zc)) ** (hi - lo)


@dataclass(frozen=True)
class CovariantKernel:
    """Projection kernel p(x, y), translation invariant up to a gauge phase.

    evaluate broadcasts over trailing-dimension-2 point arrays.  A kernel may
    record its closed form instead of an evaluate callable:

        p(x, y) = exp(-i x^y) sum_k radial[k] t^k exp(-t/2),  t = |y - x|^2,

    with the magnetic phase exp(-i x^y) only when ``magnetic`` is set.  Such
    a kernel builds evaluate from the record, and axis_factors splits the
    same record along the two axes of a square grid, so the dense and the
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

    def axis_factors(self, x: np.ndarray):
        """The recorded closed form split along the axes of the square of x.

        For the nodes (x_a, x_b) and (x_c, x_d) of the square,

            p = ph_ad[a, d] ph_bc[b, c] sum_i F_i[a, c] G_i[b, d]

        with the phases ph_ad = exp(-i x_a x_d) and ph_bc = exp(i x_b x_c)
        (ones without the magnetic phase), F_i = s^(2i) exp(-s^2/2) for
        s = x_a - x_c, and G_i = sum_{k >= i} radial[k] C(k, i) s^(2(k-i))
        exp(-s^2/2) for s = x_b - x_d: the binomial expansion of
        t^k = (s_1^2 + s_2^2)^k with the coefficients folded into G.  The
        differences, gaussians and phases are built once, from the one axis.
        Returns (ph_ad, ph_bc, [(F_0, G_0), ..., (F_m, G_m)]).
        """
        if self.radial is None:
            raise ValueError("kernel records no closed form")
        x = np.asarray(x, dtype=float)
        s = (x[:, None] - x[None, :]) ** 2
        e = np.exp(-s / 2.0)
        top = len(self.radial)
        terms = []
        for i in range(top):
            F = e * s ** i
            G = sum(self.radial[k] * math.comb(k, i) * s ** (k - i)
                    for k in range(i, top)) * e
            terms.append((F, G))
        if not self.magnetic:
            ones = np.ones((len(x), len(x)))
            return ones, ones, terms
        xx = np.outer(x, x)
        return np.exp(-1j * xx), np.exp(1j * xx), terms


def _closed_form_evaluate(radial: tuple, magnetic: bool):
    """evaluate for the closed form recorded on CovariantKernel."""

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if magnetic:
            wedge = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
        d1 = y[..., 0] - x[..., 0]
        d2 = y[..., 1] - x[..., 1]
        t = d1 * d1 + d2 * d2
        poly = _horner(radial, t)
        if not magnetic:
            return poly * np.exp(-t / 2.0)
        return np.exp(-1j * wedge) * poly * np.exp(-t / 2.0)

    return evaluate


def landau_kernel(m: int) -> CovariantKernel:
    """Closed-form level-m projection kernel.

    The kernel records radial = L_m(t) / pi, the Laguerre polynomial of the
    level, with the magnetic phase: p_m(0, z) = sum_n psi_(n,m)(0)
    conj(psi_(n,m)(z)), where only the (m, m) state is nonzero at the origin.
    """
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    radial = tuple(c / math.pi for c in _laguerre(m, 0))
    return CovariantKernel(level=m, radial=radial, magnetic=True)


def real_surrogate_kernel() -> CovariantKernel:
    """Real gaussian control kernel (1/pi) exp(-|x-y|^2/2).

    Time-reversal invariant (real symmetric), so every index quantity built
    from it must vanish.  It is not a reproducing projection kernel; it
    exists purely as the symmetry control.  It records the closed form
    radial = (1/pi,) without the magnetic phase.
    """
    return CovariantKernel(level=0, radial=(1.0 / math.pi,))


def _basis_columns(m: int, n_max: int, z: np.ndarray) -> np.ndarray:
    """The level-m states of angular momenta 0..n_max at the points z, one
    column each, filled into one (len(z), n_max + 1) array."""
    psi = np.empty((len(z), n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        psi[:, n] = basis_wavefunction(n, m, z)
    return psi


def gram_matrix(m1: int, m2: int, n_max: int) -> np.ndarray:
    """Quadrature Gram matrix between levels m1 and m2, angular momenta
    0..n_max.  Identity for m1 = m2, zero for m1 != m2."""
    t_max = 2.0 * (n_max + m1 + m2) + 60.0
    # summed over the ring, the integrand is a polynomial in t = r^2 times
    # exp(-t), so the radial rule runs in t, where the area element is dt/2
    t, wt = gauss_legendre(0.0, t_max, max(160, int(1.5 * t_max)))
    z, w = polar_nodes(0.0, np.sqrt(t), 0.5 * wt, 256)
    z, w = z.ravel(), w.ravel()
    psi1 = _basis_columns(m1, n_max, z)
    psi2 = w[:, None] * _basis_columns(m2, n_max, z)
    return np.conj(psi1, out=psi1).T @ psi2


def flux_matrix(m: int, n_max: int) -> np.ndarray:
    """Matrix of the unit flux unitary z/|z| between level-m states.

    Angular momentum selection confines the matrix to the single diagonal
    offset column = row - 1; an off-pattern residual above 1e-8 means the
    quadrature did not converge and is reported as an error.  The nodes
    come from grids.polar_nodes, as gram_matrix's do: the radial rule on
    [0, sqrt(t_max)] times 256 angles, with no DiskGrid built.
    """
    if m < 0 or n_max < 0:
        raise ValueError("level and angular cutoff must be nonnegative")
    t_max = 2.0 * (n_max + 2 * m) + 60.0
    # the unitary brings odd powers of r into the integrand, so integrate in
    # r itself (entire integrand, spectral convergence) rather than t = r^2
    r, wr = gauss_legendre(0.0, np.sqrt(t_max), max(160, int(1.5 * t_max)))
    z, w = polar_nodes(0.0, r, wr * r, 256)
    z, w = z.ravel(), w.ravel()
    u = z / np.abs(z)
    psi = _basis_columns(m, n_max, z)
    weighted = (w * u)[:, None] * psi
    # conjugated in place: the product keeps its layout and its bits
    mat = np.conj(psi, out=psi).T @ weighted
    # admissible entries sit at (n, n') = (k+1, k)
    pattern = np.eye(n_max + 1, k=-1, dtype=bool)
    resid = float(np.max(np.abs(np.where(pattern, 0.0, mat))))
    if not resid <= 1e-8:
        raise ValueError(
            f"flux matrix off-pattern residual {resid:.3e} exceeds 1.0e-08; "
            "quadrature did not converge"
        )
    return mat


def shift_index(M: np.ndarray) -> int:
    """Fredholm index of the semi-infinite shift operator truncated as M.

    Reads the diagonal offsets (column minus row) of the entries above 1e-8,
    a NaN entry among them, and returns the offset when they share one.  A
    matrix admitting no offset is not a shift matrix; one admitting several
    (the zero matrix, on which every offset carries all entries above 1e-8)
    is ambiguous.  Both are rejected.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"shift matrix must be square, got {M.shape}")
    dim = M.shape[0]
    rows, cols = np.nonzero(~(np.abs(M) <= 1e-8))
    carried = sorted(set((cols - rows).tolist()))
    if not carried:
        admissible = list(range(-(dim - 1), dim))
    else:
        admissible = carried if len(carried) == 1 else []
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

    P's layout follows the grid's polar layout alone: the kernel is
    rotation invariant about the origin, so on R radii x A angles P is
    block-circulant in the angle index and is kept as A blocks of size
    R x R, one per angular mode, computed from the R x N kernel entries of
    the first angular column.  A grid of one angle per ring, the layout
    (N, 1) of a grid with no rotation symmetry, gives the dense engine: the
    N x N matrix, the stack of one block.  Only P's residuals are
    measured: Q is projpair.conjugated(P, U)[1], for the diagonal unitary U
    of u on the nodes, built and validated once.  Q carries P's residuals
    and keeps P's blocks for a centred (z/|z|)^N; a translated flux gives a
    dense Q, and P stays on the grid's layout.  A grid node at the flux
    centre is an error.

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
    U = UnitaryMatrix(uvals)
    R, A = grid.radial_nodes, grid.angular_nodes
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
        proj_p = HermitianProjection(B, 0.05)
    except ValueError as exc:
        raise ValueError(f"truncation too coarse: {exc}") from None
    return proj_p, conjugated(proj_p, U)[1]
