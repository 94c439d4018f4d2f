"""Integration engines for the index formulas.

Four routes live here: the punctured-plane area integral (Connes area
formula), the reduced 4D covariant index integral, a 6D Monte Carlo
cross-check of the unreduced triple integral, and plain diagonal traces.
All deterministic engines use fixed node sets; the Monte Carlo engine uses
chunked, index-ordered reduction so a given seed reproduces bitwise.

The Monte Carlo chunks and the bands of the connes_area disk run as tasks
on every CPU in the affinity mask (_ordered_map; taskset pins them).  Each
task is whole in itself: a chunk draws its 16384 pairs from its own
generator and returns its sums, a band of 32 rings returns its weighted
sum, and the results are added in task order.  The tasks do not depend on
the CPU count, so neither do the bits.  A task's temporaries stay in a
core's cache.

The index and transport integrals share one core, triple_forms: bilinear
forms against the weighted cyclic triple product of the kernel on a tensor
Gauss-Legendre grid.  A kernel that records its closed form is contracted
axis by axis; any other kernel gets the dense weighted_triple_kernel, which
is also the oracle the tests compare the separable engine against.
Every grid, down to the connes_area radial rules and rings, comes from
fluxlab.grids; index_integral_4d runs on its level-sized index square.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fluxlab.gauge import GaugeUnitary
from fluxlab.grids import (TensorGrid, gauss_legendre, level_square_grid,
                           polar_disk_grid, polar_nodes)
from fluxlab.landau import CovariantKernel

logger = logging.getLogger(__name__)

_task_state = threading.local()


def _usable_cpus() -> int:
    """The CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _workers() -> int:
    """The threads a call may spread its tasks over: the usable CPUs, or
    one inside a task of _ordered_map, which runs nested calls inline."""
    return 1 if getattr(_task_state, "busy", False) else _usable_cpus()


@functools.lru_cache(maxsize=None)
def _executor(threads: int):
    # imported here: the pool costs nothing to a program that never uses it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="fluxlab")


def _in_task(task):
    busy = getattr(_task_state, "busy", False)
    _task_state.busy = True
    try:
        return task()
    finally:
        _task_state.busy = busy


def _ordered_map(tasks: list) -> list:
    """Call each task of tasks and return their results in order.

    The calling thread runs the first task, a pool of one thread fewer than
    _workers() the others; once done, the caller takes back, last first,
    every task the pool has not started.  With one worker, which includes
    a call from inside a task, all run inline, so a nested call never waits
    on the pool.  Which thread runs a task does not change its result.  No
    task outlives the call, and the first error in task order is raised.
    """
    workers = _workers()
    if workers == 1 or len(tasks) == 1:
        return [_in_task(t) for t in tasks]
    from concurrent.futures import wait
    futures = [_executor(workers - 1).submit(_in_task, t) for t in tasks[1:]]
    results = [None] * len(tasks)
    try:
        results[0] = _in_task(tasks[0])
        for i in reversed(range(1, len(tasks))):
            if futures[i - 1].cancel():
                results[i] = _in_task(tasks[i])
    finally:
        for f in futures:
            f.cancel()
        wait(futures)
    return [r if i == 0 or futures[i - 1].cancelled() else futures[i - 1].result()
            for i, r in enumerate(results)]


@dataclass(frozen=True)
class QuadratureSpec:
    """Engine parameters; None means the operation picks its own default.

    outer_radius and radial_nodes set the half side and the nodes per axis
    of index_integral_4d's square (the transport square of the hall routes
    takes no spec); mc_samples and seed fix the Monte Carlo draw.
    """

    outer_radius: Optional[float] = None
    radial_nodes: Optional[int] = None
    mc_samples: int = 10_000_000
    seed: int = 0


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
    ua = u.at(z - a)
    ub = u.at(z - b)
    uc = u.at(z - c)
    return (1.0 - ua / ub) * (1.0 - ub / uc) * (1.0 - uc / ua)


# rings of 512 nodes per task of the connes_area disk: 16384 nodes, as
# many as the pairs of a Monte Carlo chunk
_DISK_BAND_ROWS = 32


def connes_area(u: GaugeUnitary, tri: Triangle) -> complex:
    """Punctured-plane integral whose value is 2 pi i N(u) (a^b + b^c + c^a).

    The plane splits into three regions: small patches around each singular
    point handled in local polar coordinates under a smooth partition of
    unity, the mollified remainder of a disk containing all singularities,
    and a log-radial far field out to a radius where the Lipschitz tail
    bound of the integrand (decay like 1/|x|^3) falls below 1e-4.  Disks of
    radius 1e-3 are removed around the singular points.  The tail bound and
    the removed-ball bound are checked, not assumed.
    """
    eps = 1e-3
    tol = 1e-4

    a, b, c = tri.vertices_complex()
    if a == b or b == c or c == a:
        # a repeated vertex kills one ratio factor identically
        return 0.0 + 0.0j
    sing = complex(u.singularity[0], u.singularity[1])
    punct = np.array([a + sing, b + sing, c + sing])
    d12, d23, d31 = abs(a - b), abs(b - c), abs(c - a)
    dmin, dmax = min(d12, d23, d31), max(d12, d23, d31)
    if not eps < 0.1 * dmin:
        raise ValueError(
            f"puncture radius {eps:.2e} too large for singularity separation "
            f"{dmin:.3f}; need eps < 0.1 * separation"
        )

    rho = min(0.45 * dmin, 2.0)
    r1, r2 = 0.4 * rho, 0.95 * rho
    c0 = punct.mean()
    R0 = max(abs(punct - c0)) + rho + 4.0
    pmax = float(max(abs(punct)))
    # |u(x+y) - u(y)| <= |N| |arg(1 + x/y)| <= (pi/3) |N| |x|/|y| for
    # |x| <= |y|/2: the ratio bound with constant C1
    C1 = 2.0 * abs(u.winding)

    Rfar = max(pmax + 4.0 * np.pi * C1 ** 3 * d12 * d23 * d31 / tol,
               10.0 * pmax, 1.5 * R0)

    # patches: local polar around each singular point, weighted by the bump
    r, w = gauss_legendre(eps, r2, 40)
    zloc, wpatch = polar_nodes(0.0, r, w * r, 128)
    chi = _smooth_step(r, r1, r2)[:, None]

    def patch(v):
        return np.sum(wpatch * chi * _triple_ratio_integrand(u, v + zloc, a, b, c))

    # mollified global disk around the centroid, in bands of rings
    r, w = gauss_legendre(0.0, R0, 320)
    z, w2 = polar_nodes(c0, r, w * r, 512)

    def disk_band(rows):
        zb = z[rows]
        mol = np.ones(zb.shape)
        for v in punct:
            # the step is exactly 0 from r2 out, where the factor is 1
            dist = np.abs(zb - v)
            near = dist < r2
            mol[near] *= 1.0 - _smooth_step(dist[near], r1, r2)
        return np.sum(w2[rows] * mol * _triple_ratio_integrand(u, zb, a, b, c))

    # far field: log-radial Gauss nodes on [R0, Rfar], r dr = r^2 d(log r)
    ndec = int(np.ceil(np.log10(Rfar / R0) * 14.0)) + 8
    s, w = gauss_legendre(np.log(R0), np.log(Rfar), ndec)
    r = np.exp(s)
    zf, w3 = polar_nodes(c0, r, w * r ** 2, 256)

    def far():
        return np.sum(w3 * _triple_ratio_integrand(u, zf, a, b, c))

    bands = [slice(i, i + _DISK_BAND_ROWS) for i in range(0, len(z), _DISK_BAND_ROWS)]
    total = sum(_ordered_map([functools.partial(disk_band, rows) for rows in bands]
                             + [functools.partial(patch, v) for v in punct] + [far]))

    tail = 2.0 * np.pi * C1 ** 3 * d12 * d23 * d31 * (
        1.0 / (Rfar - pmax) + pmax / (2.0 * (Rfar - pmax) ** 2))
    ball = 3.0 * 8.0 * np.pi * eps ** 2
    logger.debug("connes_area tail bound %.2e, removed-ball bound %.2e, Rfar %.1f; "
                 "disk of %d x %d nodes in %d bands on %d workers", tail, ball, Rfar,
                 *z.shape, len(bands), _workers())
    if not tail <= tol:
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
    checked against 1e-8.
    """
    if int(winding) != winding:
        raise ValueError(f"winding must be an integer, got {winding}")
    winding = int(winding)
    if winding == 0:
        return 0.0 + 0.0j
    J = triple_wedge(p, level_square_grid(p.level, "index", spec))
    value = -2.0j * np.pi * winding * J
    resid = abs(value.imag)
    if not resid <= 1e-8:
        raise ValueError(
            f"imaginary residual {resid:.2e} of the index integral exceeds "
            "1e-8; quadrature did not converge"
        )
    return complex(value)


# Monte Carlo proposal constants: center-of-mass radius follows the
# heavy-tail law matching the 1/|x|^3 integrand decay; the two edge vectors
# follow the gaussian matched to the kernel-product exponent
# |r1|^2 + |r2|^2 - r1.r2, inflated 1.25x to keep weights bounded.
_MC_COM_SCALE = 2.0
_MC_VAR1 = (2.0 / 3.0) * 1.25
_MC_VAR2 = 0.5 * 1.25
# a chunk's temporaries fit a core's cache: on one core, 8 chunks of this
# size take about 20% less time than one chunk of 125000 pairs
_MC_CHUNK_PAIRS = 16_384


def _mc_proposal(U, phi, g):
    """The raw draws as the base point (x0, x1), the edge vectors r1 and r2
    as (n_pairs, 2) arrays and the inverse proposal density."""
    s0 = _MC_COM_SCALE
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


def _mc_chunk(p: CovariantKernel, alpha: int, n_pairs: int, seed):
    """(sum, sum of squared real parts, largest weight of either sign) of
    the antithetic pair means of n_pairs pairs drawn from
    np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    U = rng.random(n_pairs)
    phi = 2.0 * np.pi * rng.random(n_pairs)
    g = rng.standard_normal((n_pairs, 4))
    x0, x1, r1, r2, inv_pdf = _mc_proposal(U, phi, g)
    del U, phi, g
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
    # chunk, they set the memory peak of the Monte Carlo
    del e_wedge, e_dot
    wedge, dot = x0 * b1 - x1 * b0, x0 * b0 + x1 * b1
    S_plus += np.sin(alpha * np.arctan2(-wedge, rho2 + dot))
    S_minus += np.sin(alpha * np.arctan2(wedge, rho2 - dot))
    del wedge, dot, rho2

    w_plus, w_minus = (T * (2.0j * S) * inv_pdf for S in (S_plus, S_minus))
    pair_mean = 0.5 * (w_plus + w_minus)
    return (complex(np.sum(pair_mean)),
            float(np.sum(pair_mean.real ** 2)),
            max(float(np.max(np.abs(w_plus))), float(np.max(np.abs(w_minus)))))


def index_integral_6d_mc(p: CovariantKernel, u: GaugeUnitary,
                         spec: QuadratureSpec = None) -> MonteCarloEstimate:
    """Monte Carlo estimate of the full 6D difference-cube trace integral.

    Estimates the integral of p(x,y) p(y,z) p(z,x) (1 - u(x) conj u(y))
    (1 - u(y) conj u(z)) (1 - u(z) conj u(x)) over three planar variables,
    the unreduced form whose value equals the trace of (P - uPu*)^3.
    A sample is a base point relative to the singularity and two edge
    vectors; by covariance the kernel triple depends on the edge vectors
    alone, and u enters through the phase differences of its power form
    (z/|z|)^winding.  Antithetic reflection of the base point halves the
    variance contributed by odd modes; reduction is chunked and ordered, so
    fixed (seed, mc_samples) reproduce it bitwise.
    """
    if spec is None:
        spec = QuadratureSpec()
    if spec.mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {spec.mc_samples}")
    if u.winding == 0:
        # constant unitary: every ratio factor is exactly zero
        return MonteCarloEstimate(value=0j, std_error=0.0, samples=0, max_weight=0.0)
    n_pairs = (spec.mc_samples + 1) // 2
    sizes = [min(_MC_CHUNK_PAIRS, n_pairs - i)
             for i in range(0, n_pairs, _MC_CHUNK_PAIRS)]
    seeds = np.random.SeedSequence(spec.seed).spawn(len(sizes))
    logger.debug("mc: %d chunks of %d pairs on %d workers", len(sizes), sizes[0],
                 _workers())
    sums, sums_re2, max_ws = zip(*_ordered_map([
        functools.partial(_mc_chunk, p, u.winding, n, seed)
        for n, seed in zip(sizes, seeds)]))
    mean = sum(sums) / n_pairs
    var = max(sum(sums_re2) / n_pairs - mean.real ** 2, 0.0)
    return MonteCarloEstimate(value=mean, std_error=math.sqrt(var / n_pairs),
                              samples=2 * n_pairs, max_weight=max(max_ws))


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
