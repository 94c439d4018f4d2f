"""Switch-function Hall transport for covariant projection kernels.

The transported charge is the box limit of -2 pi times the trace of the
adiabatic curvature omega = -i [P L1 P, P L2 P] built from two switch
profiles.  For a covariant kernel everything reduces to bilinear forms
against the cyclic triple product of the kernel, computed by the core this
module shares with the index integrals (quadrature.triple_forms and
triple_wedge): transport equals charge deficiency, and the code asserts that
identity across modules rather than assuming it.
Every route runs on the level-sized transport square of fluxlab.grids, and
the switch integrals take their Gauss-Legendre rules from the same module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fluxlab.gauge import Switch
from fluxlab.grids import gauss_legendre, level_square_grid
from fluxlab.landau import CovariantKernel
from fluxlab.quadrature import (QuadratureSpec, index_integral_4d, triple_forms,
                                triple_wedge)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SwitchPair:
    """The two switch operators entering the curvature commutator.

    Each switch is a function of one coordinate; ``axes`` records which.  By
    default lambda1 varies along x1 and lambda2 along x2.  ``swapped`` returns
    the pair with the commutator order reversed, each operator keeping its
    own axis, so the curvature changes sign exactly.
    """

    lambda1: Switch
    lambda2: Switch
    axes: tuple = (0, 1)

    def __post_init__(self):
        if sorted(self.axes) != [0, 1]:
            raise ValueError(f"axes must be a permutation of (0, 1), got {self.axes}")

    def swapped(self) -> "SwitchPair":
        return SwitchPair(self.lambda2, self.lambda1,
                          axes=(self.axes[1], self.axes[0]))


def switch_integral_1d(s: Switch, a: float) -> float:
    """Integral of s(x + a) - s(x) over the line; equals a for any switch.

    The integrand decays at the switch's tail rate, so 800-node
    Gauss-Legendre on a window [-T, T] sized from the scale converges to
    machine precision; the neglected tail is bounded by |a| times the switch
    variation beyond T and checked.
    """
    T = 50.0 * s.scale + abs(a) + abs(s.center)
    x, w = gauss_legendre(-T, T, 800)
    value = float(np.sum(w * (s.evaluate(x + a) - s.evaluate(x))))
    tail = abs(a) * float((1.0 - s.evaluate(T - abs(a))) + s.evaluate(-T + abs(a)))
    if tail > 1e-10 * max(1.0, abs(a)):
        raise ValueError(f"tail truncation {tail:.2e} above tolerance; window too small")
    return value


def switch_integral_2d(pair: SwitchPair, a, b) -> float:
    """Antisymmetrized 2D switch-difference integral; equals a^b.

    The integrand is a product of one-variable differences, so the double
    integral factors exactly into products of 1D integrals, antisymmetrized
    between the two axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (switch_integral_1d(pair.lambda1, float(a[0]))
            * switch_integral_1d(pair.lambda2, float(b[1]))
            - switch_integral_1d(pair.lambda1, float(b[0]))
            * switch_integral_1d(pair.lambda2, float(a[1])))


def curvature_diagonal(p: CovariantKernel, pair: SwitchPair, x,
                       spec: QuadratureSpec = None) -> complex:
    """Diagonal value omega(x, x) of the adiabatic curvature -i [PL1P, PL2P].

    Using P^2 = P, each commutator ordering is a double kernel integral
    p(x,y) L(y) p(y,z) L(z) p(z,x): a triple_forms pair.  By covariance the
    kernel triple depends only on y - x and z - x, so the forms run on the
    transport square, which covers the kernel products' gaussian support,
    with the switches evaluated at the absolute points x + node.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    grid = level_square_grid(p.level, "transport", spec)
    Y = grid.nodes + x
    l1 = np.asarray(pair.lambda1.evaluate(Y[:, pair.axes[0]]), dtype=float)
    l2 = np.asarray(pair.lambda2.evaluate(Y[:, pair.axes[1]]), dtype=float)
    s12, s21 = triple_forms(p, grid, [l1, l2], [l2, l1])
    return -1j * (s12 - s21)


def _box_switch_integrals(s: Switch, coords: np.ndarray, L: float) -> np.ndarray:
    """A(c) = integral over [-L, L] of s(t + c) dt for each node coordinate c."""
    if s.antiderivative is not None:
        F = s.antiderivative
        return np.asarray(F(coords + L) - F(coords - L), dtype=float)
    t, w = gauss_legendre(-L, L, 400)
    return (s.evaluate(coords[:, None] + t[None, :]) @ w).astype(float)


def hall_transport_box(p: CovariantKernel, pair: SwitchPair,
                       L_values: Sequence[float] = (2.0, 3.0, 4.5, 6.0),
                       spec: QuadratureSpec = None) -> list:
    """Charge transport from boxed curvature traces, one value per L.

    Computes Q(L) = -2 pi * integral over the box [-L, L]^2 of the curvature
    diagonal.  Covariance turns the box integral of the recentered node frame
    into closed switch integrals A(c) = int_box s(t + c) dt, leaving two
    bilinear forms per L, all computed as one triple_forms batch; the
    sequence converges to the closed-form transport at the switch tail rate
    exp(-2L/scale).

    Independence of the switch shape is a property of the box limit.  At a
    fixed L the widest switch sets the error: for the level-0 kernel the
    scale-2 error is 1.26e-2, 4.67e-3 and 1.72e-3 at L = 6, 7, 8, shrinking
    by e^-1 per unit L, while the scale-0.5 error is 8e-9 at L = 6.
    """
    Ls = [float(L) for L in L_values]
    if any(b <= a for a, b in zip([0.0] + Ls, Ls)):
        raise ValueError(f"L values must be positive and strictly increasing, got {Ls}")
    grid = level_square_grid(p.level, "transport", spec)
    nodes = grid.nodes
    V, W = [], []
    for L in Ls:
        a1 = _box_switch_integrals(pair.lambda1, nodes[:, pair.axes[0]], L)
        a2 = _box_switch_integrals(pair.lambda2, nodes[:, pair.axes[1]], L)
        V += [a1, a2]
        W += [a2, a1]
    forms = triple_forms(p, grid, V, W)
    out = []
    for L, (f12, f21) in zip(Ls, forms.reshape(-1, 2)):
        q = 2.0j * np.pi * (f12 - f21)
        logger.debug("box transport L=%.2f: %.8f (imag %.1e)", L, q.real, q.imag)
        out.append((L, float(q.real)))
    return out


def hall_transport_closed_form(p: CovariantKernel, spec: QuadratureSpec = None,
                               identity_tol: float = 1e-6) -> float:
    """Closed-form transport Q = 2 pi i * triple-product wedge integral.

    The box limit collapses to the 4D integral of p(0,y) p(y,z) p(z,0) (y^z),
    triple_wedge on the transport grid; the same integral with opposite
    prefactor is the charge deficiency, so before returning, the
    transport/deficiency identity Q = -Index is checked against the index
    engine on its own (different) grid.
    """
    q = 2.0j * np.pi * triple_wedge(p, level_square_grid(p.level, "transport", spec))
    tol = 1e-8
    if spec is not None and spec.target_tol is not None:
        tol = spec.target_tol
    if abs(q.imag) > tol:
        raise ValueError(
            f"imaginary residual {abs(q.imag):.2e} of the transport integral "
            f"exceeds {tol:.1e}"
        )
    deficiency = index_integral_4d(p, winding=1)
    if abs(q.real + deficiency.real) > identity_tol:
        raise RuntimeError(
            "transport/deficiency identity violated: "
            f"Q = {q.real:.9f} but -Index = {-deficiency.real:.9f}"
        )
    return float(q.real)


def kubo_box(p: CovariantKernel, L: float, spec: QuadratureSpec = None) -> float:
    """Box-averaged Kubo conductance; approaches Q / (2 pi) as L grows.

    The antisymmetrized P x1 Pperp x2 P average reduces, for a covariant
    kernel over the symmetric box, to i times the triple-product wedge
    integral (triple_wedge on the transport grid, the closed form's core):
    the x-dependent part of the integrand is odd and the box average kills
    it exactly, so L affects the result only through that exact
    cancellation.
    """
    if L <= 0:
        raise ValueError(f"box half side must be positive, got {L}")
    val = 1j * triple_wedge(p, level_square_grid(p.level, "transport", spec))
    return float(val.real)
