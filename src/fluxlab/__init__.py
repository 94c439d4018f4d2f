"""Numerical laboratory for relative indices of projection pairs.

The package computes the Fredholm-type relative index of projection pairs
produced by inserting a magnetic flux tube through a filled Landau level or a
lattice gap projection, by several independent routes (spectral counting,
odd-power traces, Fedosov trace differences, the Connes area formula, a 4D
covariant integral, a 6D Monte Carlo integral, and switch-function Hall
transport), and cross-checks them against each other at desk scale.
"""

from fluxlab.projpair import (
    HermitianProjection,
    UnitaryMatrix,
    IndexReport,
    index_by_spectral_count,
    index_by_odd_trace,
    odd_trace_stability,
    index_by_fedosov,
    additivity_check,
    random_projection,
)
from fluxlab.gauge import (
    GaugeUnitary,
    Switch,
    flux_unitary,
    translate_unitary,
    product_unitary,
    numerical_winding,
    tanh_switch,
)
from fluxlab.landau import (
    CovariantKernel,
    basis_wavefunction,
    landau_kernel,
    real_surrogate_kernel,
    flux_matrix,
    shift_index,
    truncated_projection_pair,
)
from fluxlab.quadrature import (
    QuadratureSpec,
    Triangle,
    connes_area,
    index_integral_4d,
    index_integral_6d_mc,
    trace_from_diagonal,
)
from fluxlab.hall import (
    SwitchPair,
    switch_integral_1d,
    switch_integral_2d,
    curvature_diagonal,
    hall_transport_closed_form,
    hall_transport_box,
    kubo_box,
)
from fluxlab.lattice import (
    MagneticLatticeModel,
    GapProjection,
    DisorderEnsemble,
    build_hamiltonian,
    gap_projection,
    lattice_flux_unitary,
    lattice_index,
    wedge_experiment,
    disorder_constancy,
    decay_fit,
)

__version__ = "0.1.0"
