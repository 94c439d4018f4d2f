"""Integration engines for the index formulas.

Four routes live here: the punctured-plane area integral (Connes area
formula), the reduced 4D covariant index integral, a 6D Monte Carlo
cross-check of the unreduced triple integral, and plain diagonal traces.
All deterministic engines use fixed node sets; the Monte Carlo engine uses
chunked, index-ordered reduction so a given seed reproduces bitwise.

The index and transport integrals share one core, triple_forms: bilinear
forms against the weighted cyclic triple product of the kernel on a tensor
Gauss-Legendre grid.  A kernel that records its closed form is contracted
axis by axis; any other kernel gets the dense weighted_triple_kernel, which
is also the oracle the tests compare the separable engine against.
Every grid, down to the connes_area radial rules and rings, comes from
fluxlab.grids; index_integral_4d runs on its level-sized index square.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fluxlab.gauge import GaugeUnitary
from fluxlab.grids import (TensorGrid, gauss_legendre, level_square_grid,
                           polar_disk_grid, polar_nodes)
from fluxlab.landau import CovariantKernel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """Engine parameters; None means the operation picks its own default.

    outer_radius bounds the integration domain (disk radius or box
    half-side depending on the engine), puncture_radius the removed disks
    around singular points, radial_nodes the nodes per axis of the index
    and transport squares.  target_tol is the acceptance threshold for the
    engine's own error estimate (tail bound, imaginary residual, or Monte
    Carlo standard error).
    """

    outer_radius: Optional[float] = None
    puncture_radius: float = 1e-3
    radial_nodes: Optional[int] = None
    mc_samples: int = 10_000_000
    seed: int = 0
    target_tol: Optional[float] = None


@dataclass(frozen=True)
class Triangle:
    """Oriented triangle; vertices are planar points."""

    a: tuple
    b: tuple
    c: tuple

    def oriented_area_twice(self) -> float:
        """a^b + b^c + c^a with x^y = x1 y2 - x2 y1 (twice the signed area)."""
        a, b, c = (np.asarray(v, dtype=float) for v in (self.a, self.b, self.c))
        return float(_wedge(a, b) + _wedge(b, c) + _wedge(c, a))

    def vertices_complex(self) -> tuple:
        return tuple(complex(v[0], v[1]) for v in (self.a, self.b, self.c))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Monte Carlo value with sampling diagnostics.

    std_error is the standard error of the real part (the quantity carrying
    the index); the imaginary part of value is the residual left by the
    Hermitian symmetry of the integrand.
    """

    value: complex
    std_error: float
    samples: int
    max_weight: float

    def deviation(self, reference: float) -> float:
        """|Re(value) - reference| in units of the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.value.real == reference else math.inf
        return abs(self.value.real - reference) / self.std_error


def _wedge(x, y):
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _points(z: np.ndarray) -> np.ndarray:
    return np.stack([np.real(z), np.imag(z)], axis=-1)


def _smooth_step(r, r1, r2):
    """C-infinity transition: 1 for r <= r1, 0 for r >= r2."""
    t = np.clip((r - r1) / (r2 - r1), 0.0, 1.0)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    fa = np.exp(-1.0 / tm)
    fb = np.exp(-1.0 / (1.0 - tm))
    out[mid] = fb / (fa + fb)
    out[t <= 0.0] = 1.0
    return out


def _triple_ratio_integrand(u: GaugeUnitary, z: np.ndarray, a: complex,
                            b: complex, c: complex) -> np.ndarray:
    ua = u.evaluate(_points(z - a))
    ub = u.evaluate(_points(z - b))
    uc = u.evaluate(_points(z - c))
    return (1.0 - ua / ub) * (1.0 - ub / uc) * (1.0 - uc / ua)


def connes_area(u: GaugeUnitary, tri: Triangle, spec: QuadratureSpec = None) -> complex:
    """Punctured-plane integral whose value is 2 pi i N(u) (a^b + b^c + c^a).

    The plane splits into three regions: small patches around each singular
    point handled in local polar coordinates under a smooth partition of
    unity, the mollified remainder of a disk containing all singularities,
    and a log-radial far field out to a radius where the Lipschitz tail
    bound of the integrand (decay like 1/|x|^3) falls below target_tol.
    The tail bound and the removed-ball bound are checked, not assumed.
    """
    if spec is None:
        spec = QuadratureSpec()
    eps = spec.puncture_radius
    tol = spec.target_tol if spec.target_tol is not None else 1e-4

    a, b, c = tri.vertices_complex()
    if a == b or b == c or c == a:
        # a repeated vertex kills one ratio factor identically
        return 0.0 + 0.0j
    sing = complex(u.singularity[0], u.singularity[1])
    punct = np.array([a + sing, b + sing, c + sing])
    d12, d23, d31 = abs(a - b), abs(b - c), abs(c - a)
    dmin, dmax = min(d12, d23, d31), max(d12, d23, d31)
    if eps >= 0.1 * dmin:
        raise ValueError(
            f"puncture radius {eps:.2e} too large for singularity separation "
            f"{dmin:.3f}; need eps < 0.1 * separation"
        )

    rho = min(0.45 * dmin, 2.0)
    r1, r2 = 0.4 * rho, 0.95 * rho
    c0 = punct.mean()
    R0 = max(abs(punct - c0)) + rho + 4.0
    pmax = float(max(abs(punct)))
    C1 = u.lipschitz_c1

    if spec.outer_radius is not None:
        Rfar = spec.outer_radius
        if Rfar < 10.0 * pmax:
            raise ValueError(
                f"outer radius {Rfar:.2f} below 10x the largest singularity "
                f"coordinate {pmax:.2f}"
            )
        Rfar = max(Rfar, 1.02 * R0)
    else:
        Rfar = max(pmax + 4.0 * np.pi * C1 ** 3 * d12 * d23 * d31 / tol,
                   10.0 * pmax, 1.5 * R0)

    total = 0.0 + 0.0j

    # patches: local polar around each singular point, weighted by the bump
    r, w = gauss_legendre(eps, r2, 40)
    zloc, wpatch = polar_nodes(0.0, r, w * r, 128)
    chi = _smooth_step(r, r1, r2)[:, None]
    for v in punct:
        total += np.sum(wpatch * chi * _triple_ratio_integrand(u, v + zloc, a, b, c))

    # mollified global disk around the centroid
    r, w = gauss_legendre(0.0, R0, 320)
    z, w2 = polar_nodes(c0, r, w * r, 512)
    mol = np.ones(z.shape)
    for v in punct:
        mol *= 1.0 - _smooth_step(np.abs(z - v), r1, r2)
    total += np.sum(w2 * mol * _triple_ratio_integrand(u, z, a, b, c))

    # far field: log-radial Gauss nodes on [R0, Rfar], r dr = r^2 d(log r)
    ndec = int(np.ceil(np.log10(Rfar / R0) * 14.0)) + 8
    s, w = gauss_legendre(np.log(R0), np.log(Rfar), ndec)
    r = np.exp(s)
    zf, w3 = polar_nodes(c0, r, w * r ** 2, 256)
    total += np.sum(w3 * _triple_ratio_integrand(u, zf, a, b, c))

    tail = 2.0 * np.pi * C1 ** 3 * d12 * d23 * d31 * (
        1.0 / (Rfar - pmax) + pmax / (2.0 * (Rfar - pmax) ** 2))
    ball = 3.0 * 8.0 * np.pi * eps ** 2
    logger.debug("connes_area tail bound %.2e, removed-ball bound %.2e, Rfar %.1f",
                 tail, ball, Rfar)
    if tail > tol:
        raise ValueError(
            f"far-field tail bound {tail:.2e} exceeds target {tol:.1e}; "
            "outer radius too small"
        )
    return complex(total)


def weighted_triple_kernel(p: CovariantKernel, nodes: np.ndarray,
                           weights: np.ndarray, x0=(0.0, 0.0)) -> np.ndarray:
    """Matrix T_jk = w_j w_k p(x0, x_j) p(x_j, x_k) conj p(x0, x_k).

    The dense form of the core of triple_forms: the engine for kernels
    without a recorded closed form (at base point 0), and the oracle in
    absolute coordinates that the separable engine is tested against.
    Assembled in place to hold one N x N complex buffer.
    """
    base = np.asarray(x0, dtype=float).reshape(1, 2)
    t0 = p.pair_matrix(base, nodes)[0]
    T = p.pair_matrix(nodes, nodes)
    T *= (t0 * weights)[:, None]
    T *= (np.conj(t0) * weights)[None, :]
    return T


def triple_forms(p: CovariantKernel, grid: TensorGrid, V, W) -> np.ndarray:
    """The bilinear forms V_k T W_k against T = weighted_triple_kernel.

    V and W are (K, N) stacks of vectors on the grid nodes; T carries the
    cyclic triple product p(0, x_j) p(x_j, x_l) p(x_l, 0) with the weights,
    the integrand that the index and transport integrals share.  By
    covariance the triple depends only on the edge vectors, so a caller
    with another base point passes nodes relative to it.
    When p records its closed form the kernel is contracted axis by axis
    (CovariantKernel.axis_factors): for each term, Z[a, b, c] =
    ph_vu[b, c] F[a, c] and N = Z @ W_k cost n^4 flops and n^3 memory
    instead of the n^4 kernel entries of T.  Otherwise T is built once.
    Each form is computed on its own, so its value does not depend on the
    other rows of the batch.
    """
    V = np.atleast_2d(V)
    W = np.atleast_2d(W)
    nodes, weights = grid.nodes, grid.weights
    if p.radial is None:
        T = weighted_triple_kernel(p, nodes, weights)
        return np.array([v @ (T @ w) for v, w in zip(V, W)])
    t0 = p.pair_matrix(np.zeros((1, 2)), nodes)[0] * weights
    nu, nv = len(grid.u), len(grid.v)
    ph_uv, ph_vu, terms = p.axis_factors(grid.u, grid.v)
    Z = [(ph_vu[None, :, :] * F[:, None, :]).reshape(nu * nv, nu) for F, _ in terms]
    out = np.zeros(len(V), dtype=complex)
    for k in range(len(V)):
        left = (V[k] * t0).reshape(nu, nv)
        right = (W[k] * np.conj(t0)).reshape(nu, nv)
        for Zi, (_, G) in zip(Z, terms):
            N = (Zi @ right).reshape(nu, nv, nv)
            out[k] += np.einsum("ab,bd,abd,ad->", left, G, N, ph_uv)
    return out


def triple_wedge(p: CovariantKernel, grid: TensorGrid) -> complex:
    """Sum over node pairs of T_jl (x_j ^ x_l) with base point 0.

    The wedge integral of the cyclic triple product: minus the level index
    up to the factor 2 pi i, and the closed-form transport.  It is the form
    difference x1 T x2 - x2 T x1.
    """
    x1, x2 = grid.nodes.T
    f = triple_forms(p, grid, [x1, x2], [x2, x1])
    return complex(f[0] - f[1])


def index_integral_4d(p: CovariantKernel, winding: int,
                      spec: QuadratureSpec = None) -> complex:
    """-2 pi i * winding * integral of p(0,x) p(x,y) p(y,0) x^y over the plane.

    The covariance of the kernel reduces the index integral to this 4D form;
    winding enters only as the prefactor.  The integral is triple_wedge on
    the index square of grids.level_square_grid for the kernel level (half
    side 7 + 1.5 m, 46 + 8 m nodes per axis), which the outer_radius and
    radial_nodes of spec override.  The exact value is real for a Hermitian
    kernel, so the imaginary part of the result is a pure residual and is
    checked against target_tol.
    """
    if int(winding) != winding:
        raise ValueError(f"winding must be an integer, got {winding}")
    winding = int(winding)
    if spec is None:
        spec = QuadratureSpec()
    tol = spec.target_tol if spec.target_tol is not None else 1e-8
    if winding == 0:
        return 0.0 + 0.0j
    J = triple_wedge(p, level_square_grid(p.level, "index", spec))
    value = -2.0j * np.pi * winding * J
    resid = abs(value.imag)
    if resid > tol:
        raise ValueError(
            f"imaginary residual {resid:.2e} of the index integral exceeds "
            f"{tol:.1e}; quadrature did not converge"
        )
    return complex(value)


# Monte Carlo proposal constants: center-of-mass radius follows the
# heavy-tail law matching the 1/|x|^3 integrand decay; the two edge vectors
# follow the gaussian matched to the kernel-product exponent
# |r1|^2 + |r2|^2 - r1.r2, inflated 1.25x to keep weights bounded.
_MC_COM_SCALE = 2.0
_MC_VAR1 = (2.0 / 3.0) * 1.25
_MC_VAR2 = 0.5 * 1.25
_MC_CHUNK_PAIRS = 125_000


def _mc_draws(n_pairs: int, rng):
    """One chunk of proposal draws: the base point (x0, x1), the edge vectors
    r1 and r2 as (n_pairs, 2) arrays and the inverse proposal density."""
    s0 = _MC_COM_SCALE
    U = rng.random(n_pairs)
    phi = 2.0 * np.pi * rng.random(n_pairs)
    g = rng.standard_normal((n_pairs, 4))
    rho = s0 * np.sqrt(1.0 / (1.0 - U) ** 2 - 1.0)
    x0, x1 = rho * np.cos(phi), rho * np.sin(phi)
    r1 = math.sqrt(_MC_VAR1) * g[:, 0:2]
    r2 = 0.5 * r1 + math.sqrt(_MC_VAR2) * g[:, 2:4]
    pdf_x = s0 / (2.0 * np.pi * (s0 ** 2 + rho ** 2) ** 1.5)
    q1 = r1[:, 0] * r1[:, 0] + r1[:, 1] * r1[:, 1]
    dq0, dq1 = r2[:, 0] - 0.5 * r1[:, 0], r2[:, 1] - 0.5 * r1[:, 1]
    q2 = dq0 * dq0 + dq1 * dq1
    pdf_r = (np.exp(-q1 / (2.0 * _MC_VAR1)) / (2.0 * np.pi * _MC_VAR1)
             * np.exp(-q2 / (2.0 * _MC_VAR2)) / (2.0 * np.pi * _MC_VAR2))
    return x0, x1, r1, r2, 1.0 / (pdf_x * pdf_r)


def _mc_chunk(p: CovariantKernel, alpha: int, n_pairs: int, rng):
    x0, x1, r1, r2, inv_pdf = _mc_draws(n_pairs, rng)
    # by covariance both antithetic triangles share this triple
    origin = np.zeros(2)
    T = p.evaluate(origin, r1) * p.evaluate(r1, r2) * p.evaluate(r2, origin)

    # phase differences of (z/|z|)^alpha by planar geometry: stable for
    # triangles far from the singularity, where direct complex evaluation
    # would difference two nearly equal angles.  Every product is formed
    # once; reflecting the base point x negates the ones odd in x.
    # Bitwise as per sign: rounding commutes with negation, -(a-b) == b-a.
    a0, a1, b0, b1 = r1[:, 0], r1[:, 1], r2[:, 0], r2[:, 1]
    rho2 = x0 * x0 + x1 * x1
    wedge, dot = x0 * a1 - x1 * a0, x0 * a0 + x1 * a1
    S_plus = np.sin(alpha * np.arctan2(wedge, rho2 + dot))
    S_minus = np.sin(alpha * np.arctan2(-wedge, rho2 - dot))
    e_wedge, e_dot = a0 * b1 - a1 * b0, a0 * b0 + a1 * b1
    wedge = x0 * (b1 - a1) - x1 * (b0 - a0)
    dot = x0 * (a0 + b0) + x1 * (a1 + b1)
    S_plus += np.sin(alpha * np.arctan2(wedge + e_wedge, rho2 + dot + e_dot))
    S_minus += np.sin(alpha * np.arctan2(e_wedge - wedge, rho2 - dot + e_dot))
    # drop each product once both signs used it: kept to the end of the
    # chunk, they set the memory peak of the integrals pass
    del e_wedge, e_dot
    wedge, dot = x0 * b1 - x1 * b0, x0 * b0 + x1 * b1
    S_plus += np.sin(alpha * np.arctan2(-wedge, rho2 + dot))
    S_minus += np.sin(alpha * np.arctan2(wedge, rho2 - dot))
    del wedge, dot, rho2

    pair_sum = None
    max_w = 0.0
    for S in (S_plus, S_minus):
        w = T * (2.0j * S) * inv_pdf
        max_w = max(max_w, float(np.max(np.abs(w))))
        pair_sum = w if pair_sum is None else pair_sum + w
    pair_mean = 0.5 * pair_sum
    return (complex(np.sum(pair_mean)),
            float(np.sum(pair_mean.real ** 2)),
            max_w)


def index_integral_6d_mc(p: CovariantKernel, u: GaugeUnitary,
                         spec: QuadratureSpec = None) -> MonteCarloEstimate:
    """Monte Carlo estimate of the full 6D difference-cube trace integral.

    Estimates the integral of p(x,y) p(y,z) p(z,x) (1 - u(x) conj u(y))
    (1 - u(y) conj u(z)) (1 - u(z) conj u(x)) over three planar variables,
    the unreduced form whose value equals the trace of (P - uPu*)^3.
    A sample is a base point relative to the singularity and two edge
    vectors; by covariance the kernel triple depends on the edge vectors
    alone, and u, which must record its flux_power, enters through the
    phase differences of (z/|z|)^alpha.  Antithetic reflection of the base
    point halves the variance contributed by odd modes; reduction is
    chunked and ordered, so fixed (seed, mc_samples) reproduce it bitwise.
    """
    if spec is None:
        spec = QuadratureSpec()
    if u.flux_power is None:
        raise ValueError("the Monte Carlo integral needs a unitary (z/|z|)^alpha "
                         "that records its flux_power; this one has flux_power None")
    if u.flux_power == 0:
        # constant unitary: every ratio factor is exactly zero
        return MonteCarloEstimate(value=0j, std_error=0.0, samples=0, max_weight=0.0)
    n_pairs_total = max(1, (spec.mc_samples + 1) // 2)
    n_chunks = (n_pairs_total + _MC_CHUNK_PAIRS - 1) // _MC_CHUNK_PAIRS
    children = np.random.SeedSequence(spec.seed).spawn(n_chunks)
    total = 0.0 + 0.0j
    total_re2 = 0.0
    max_w = 0.0
    for i, child in enumerate(children):
        n_here = min(_MC_CHUNK_PAIRS, n_pairs_total - i * _MC_CHUNK_PAIRS)
        s, s2, mw = _mc_chunk(p, u.flux_power, n_here, np.random.default_rng(child))
        total += s
        total_re2 += s2
        max_w = max(max_w, mw)
    mean = total / n_pairs_total
    var = max(total_re2 / n_pairs_total - mean.real ** 2, 0.0)
    std_error = math.sqrt(var / n_pairs_total)
    est = MonteCarloEstimate(value=mean, std_error=std_error,
                             samples=2 * n_pairs_total, max_weight=max_w)
    if spec.target_tol is not None and std_error > spec.target_tol:
        raise ValueError(
            f"standard error {std_error:.2e} above target {spec.target_tol:.1e} "
            f"after {est.samples} samples"
        )
    return est


def trace_from_diagonal(k, radius: float) -> complex:
    """Integral of k(x, x) over the disk of the given radius, on 96 x 160
    polar nodes.

    For trace-class kernels this is the trace; for the difference kernel
    p(x,y)(1 - u(x) conj u(y)) it vanishes identically because the diagonal
    factor 1 - |u|^2 is zero pointwise.
    """
    grid = polar_disk_grid(radius, 96, 160)
    vals = k(grid.nodes, grid.nodes)
    return complex(np.sum(grid.weights * vals))
