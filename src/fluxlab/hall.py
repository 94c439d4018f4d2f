"""Switch-function Hall transport for covariant projection kernels.

The transported charge is the box limit of -2 pi times the trace of the
adiabatic curvature omega = -i [P L1 P, P L2 P] built from two switch
profiles.  For a covariant kernel every route reduces to antisymmetric
forms f(a, b) - f(b, a) against the cyclic triple product of the kernel,
computed by the core this module shares with the index integrals
(quadrature.antisymmetric_forms and triple_wedge), and every route refuses
an imaginary residual above 1e-8 through quadrature.real_residual_checked:
transport equals charge deficiency, and the code asserts that identity
across modules rather than assuming it.
Every route runs on the level-sized transport square of fluxlab.grids,
which no argument changes.  The switches are gauge.Switch records: the box
route integrates them through their closed-form primitive, and the line
integral of switch_integral_1d takes its Gauss-Legendre rule from grids.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fluxlab.gauge import Switch
from fluxlab.grids import gauss_legendre, level_square_grid
from fluxlab.landau import CovariantKernel
from fluxlab.quadrature import (antisymmetric_forms, index_integral_4d,
                                real_residual_checked, triple_wedge)

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
    if not tail <= 1e-10 * max(1.0, abs(a)):
        raise ValueError(f"tail truncation {tail:.2e} above tolerance; window too small")
    return value


def switch_integral_2d(pair: SwitchPair, a, b) -> float:
    """Antisymmetrized 2D switch-difference integral; equals a^b, or -a^b
    for a pair whose axes are swapped.

    Each switch varies along its recorded axis, as in curvature_diagonal and
    hall_transport_box.  The integrand is a product of one-variable
    differences, so the double integral factors exactly into products of 1D
    integrals, antisymmetrized between the two switches.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    i, j = pair.axes
    return (switch_integral_1d(pair.lambda1, float(a[i]))
            * switch_integral_1d(pair.lambda2, float(b[j]))
            - switch_integral_1d(pair.lambda1, float(b[i]))
            * switch_integral_1d(pair.lambda2, float(a[j])))


def curvature_diagonal(p: CovariantKernel, pair: SwitchPair, x) -> complex:
    """Diagonal value omega(x, x) of the adiabatic curvature -i [PL1P, PL2P].

    Using P^2 = P, each commutator ordering is a double kernel integral
    p(x,y) L(y) p(y,z) L(z) p(z,x), and the commutator is their
    antisymmetric form (quadrature.antisymmetric_forms).  By covariance the
    kernel triple depends only on y - x and z - x, so the forms run on the
    transport square, which covers the kernel products' gaussian support,
    with the switches evaluated at the absolute points x + node.  A point x
    that is not finite is refused.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"curvature point must be finite, got {tuple(x.tolist())}")
    grid = level_square_grid(p.level, "transport")
    Y = grid.nodes + x
    l1 = pair.lambda1.evaluate(Y[:, pair.axes[0]])
    l2 = pair.lambda2.evaluate(Y[:, pair.axes[1]])
    return -1j * antisymmetric_forms(p, grid, l1, l2)[0]


def _box_switch_integrals(s: Switch, coords: np.ndarray, L: float) -> np.ndarray:
    """A(c) = integral over [-L, L] of s(t + c) dt for each node coordinate c,
    from the switch's primitive."""
    return s.antiderivative(coords + L) - s.antiderivative(coords - L)


def hall_transport_box(p: CovariantKernel, pair: SwitchPair,
                       L_values: Sequence[float] = (2.0, 3.0, 4.5, 6.0)) -> list:
    """Charge transport from boxed curvature traces, one value per L.

    Computes Q(L) = -2 pi * integral over the box [-L, L]^2 of the curvature
    diagonal.  Covariance turns the box integral of the recentered node frame
    into closed switch integrals A(c) = int_box s(t + c) dt, leaving one
    antisymmetric form per L, all computed as one batch; the sequence
    converges to the closed-form transport at the switch tail rate
    exp(-2L/scale).

    Independence of the switch shape is a property of the box limit.  At a
    fixed L the widest switch sets the error: for the level-0 kernel the
    scale-2 error is 1.26e-2, 4.67e-3 and 1.72e-3 at L = 6, 7, 8, shrinking
    by e^-1 per unit L, while the scale-0.5 error is 8e-9 at L = 6.  The L
    values must be positive, finite and strictly increasing.  The
    imaginary residual of each value is refused above 1e-8.
    """
    Ls = [float(L) for L in L_values]
    if not Ls:
        raise ValueError("L_values must not be empty")
    if not (all(b > a for a, b in zip([0.0] + Ls, Ls)) and math.isfinite(Ls[-1])):
        raise ValueError(f"L values must be positive, finite and strictly increasing, "
                         f"got {Ls}")
    grid = level_square_grid(p.level, "transport")
    nodes = grid.nodes
    A1 = [_box_switch_integrals(pair.lambda1, nodes[:, pair.axes[0]], L) for L in Ls]
    A2 = [_box_switch_integrals(pair.lambda2, nodes[:, pair.axes[1]], L) for L in Ls]
    out = []
    for L, form in zip(Ls, antisymmetric_forms(p, grid, A1, A2)):
        q = 2.0j * np.pi * form
        logger.debug("box transport L=%.2f: %.8f (imag %.1e)", L, q.real, q.imag)
        out.append((L, float(real_residual_checked(q, f"box transport at L = {L}").real)))
    return out


def hall_transport_closed_form(p: CovariantKernel) -> float:
    """Closed-form transport Q = 2 pi i * triple-product wedge integral.

    The box limit collapses to the 4D integral of p(0,y) p(y,z) p(z,0) (y^z),
    triple_wedge on the transport grid; the same integral with opposite
    prefactor is the charge deficiency, so before returning, the
    transport/deficiency identity Q = -Index is checked to 1e-6 against the
    index engine on its own (different) grid, and a violation is refused as
    a ValueError.  The imaginary residual is refused above 1e-8.
    """
    q = real_residual_checked(
        2.0j * np.pi * triple_wedge(p, level_square_grid(p.level, "transport")),
        "transport integral")
    deficiency = index_integral_4d(p, winding=1)
    if not abs(q.real + deficiency.real) <= 1e-6:
        raise ValueError(
            "transport/deficiency identity violated: "
            f"Q = {q.real:.9f} but -Index = {-deficiency.real:.9f}"
        )
    return float(q.real)


def kubo_box(p: CovariantKernel, L: float) -> float:
    """Box-averaged Kubo conductance; approaches Q / (2 pi) as L grows.

    The antisymmetrized P x1 Pperp x2 P average reduces, for a covariant
    kernel over the symmetric box, to i times the triple-product wedge
    integral (triple_wedge on the transport grid, the closed form's core):
    the x-dependent part of the integrand is odd and the box average kills
    it exactly, so L affects the result only through that exact
    cancellation.  L must be positive and finite, as in hall_transport_box.
    The imaginary residual is refused above 1e-8.
    """
    if not 0.0 < L < math.inf:
        raise ValueError(f"box half side must be positive and finite, got {L}")
    val = 1j * triple_wedge(p, level_square_grid(p.level, "transport"))
    return float(real_residual_checked(val, "Kubo average").real)
