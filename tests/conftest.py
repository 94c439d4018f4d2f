"""Shared fixtures and the acceptance-criteria terminal summary.

The expensive objects (Nystrom-truncated Landau pairs, the 24x24 lattice
benchmark) are built once per session and shared between module tests and the
acceptance suite.  Tests marked ``criterion(num, label)`` are aggregated into
one PASS/FAIL line per criterion at the end of the run.
"""

import numpy as np
import pytest

from fluxlab import gauge, landau, lattice, projpair

_CRITERIA = {}
_NODE_TO_CRITERION = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label): tag a test as part of numbered acceptance criterion",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        mark = item.get_closest_marker("criterion")
        if mark is not None:
            num, label = mark.args
            _NODE_TO_CRITERION[item.nodeid] = num
            _CRITERIA.setdefault(num, {"label": label, "failed": [], "ran": 0})


def pytest_runtest_logreport(report):
    num = _NODE_TO_CRITERION.get(report.nodeid)
    if num is None or report.when != "call":
        return
    entry = _CRITERIA[num]
    entry["ran"] += 1
    if report.failed:
        entry["failed"].append(report.nodeid.rsplit("::", 1)[-1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        entry = _CRITERIA[num]
        if not entry["ran"]:
            terminalreporter.write_line(
                f"[acceptance] criterion {num}: NOT RUN ({entry['label']})")
        elif entry["failed"]:
            names = ", ".join(entry["failed"])
            terminalreporter.write_line(
                f"[acceptance] criterion {num}: FAIL ({entry['label']}; "
                f"failing: {names})", red=True)
        else:
            terminalreporter.write_line(
                f"[acceptance] criterion {num}: PASS ({entry['label']})",
                green=True)


@pytest.fixture(params=["m0", "m1", "m2", "surrogate"])
def closed_form_kernel(request):
    """A kernel that records its closed form, contracted axis by axis by the
    separable triple-form engine: Landau levels 0-2 and the real surrogate."""
    if request.param == "surrogate":
        return landau.real_surrogate_kernel()
    return landau.landau_kernel(int(request.param[1:]))


@pytest.fixture(scope="session")
def disk_grid():
    return landau.polar_disk_grid(8.0)


@pytest.fixture(scope="session")
def truncated_pair_m0(disk_grid):
    u = gauge.flux_unitary(1)
    return landau.truncated_projection_pair(0, u, disk_grid)


@pytest.fixture(scope="session")
def grid_flux_unitary(disk_grid):
    u = gauge.flux_unitary(1)
    return projpair.UnitaryMatrix(u(disk_grid.nodes))


@pytest.fixture(scope="session")
def lattice_benchmark():
    """Clean 24x24 flux-1/3 model with its Fermi projection and flux unitary."""
    model = lattice.MagneticLatticeModel(24, 24, 1.0 / 3.0)
    H = lattice.build_hamiltonian(model)
    gp = lattice.gap_projection(H, -1.29)
    U = lattice.lattice_flux_unitary(model, (11.5, 11.5))
    return model, H, gp, U
