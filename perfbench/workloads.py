"""The benchmark's three workloads, each a fixed list of checked routes.

A route is a chain of public fluxlab calls that yields numbers, each with a
check (see checks.py).  Construction of a workload is its set-up: it builds
the inputs, drawn from the workload seed where the workload has seeded
inputs.  ``run_pass`` runs every route once, closed loop: each call starts
only after the previous one returned.  Parameters mirror the fluxlab CLI
defaults and the test fixtures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fluxlab import cli, gauge, hall, landau, lattice, projpair, quadrature

from checks import below, exact, near, pinned, within

FLUX = 1.0 / 3.0
FERMI = -1.29
INDEX = -1.0


@dataclass
class RouteResult:
    route: str
    route_id: int
    pass_index: int
    seconds: float
    values: list
    checks: list
    ok: bool
    error: str = ""

    def as_json(self) -> dict:
        return {"route": self.route, "route_id": self.route_id,
                "pass": self.pass_index, "seconds": self.seconds,
                "values": self.values, "ok": self.ok, "error": self.error,
                "checks": [[c.kind, c.target, c.slack] for c in self.checks]}


@dataclass
class Runner:
    """Runs routes one after another, times and checks each one."""

    tracer: object
    pass_index: int = 0
    results: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    # called after every route; returns the seconds it took, which are
    # summed in paused_s so that the pass time can leave them out
    after_route: object = None
    paused_s: float = 0.0

    def span(self, name: str):
        return self.tracer.span(name)

    def count(self, name: str, value: float, total: bool = False):
        """Record a per-pass count; total=True sums it over the pass."""
        self.counts[name] = value + (self.counts.get(name, 0) if total else 0)

    def route(self, name: str, fn):
        """Run fn() -> [(value, Check), ...]; a raised error fails the route."""
        self.tracer.route = name
        self.tracer.route_id = len(self.results)
        t0 = time.perf_counter()
        try:
            outcome = fn()
            error = ""
        except Exception:  # a failing route is counted, the pass goes on
            outcome = []
            error = traceback.format_exc()
            print(f"route {name} raised:\n{error}", file=sys.stderr)
        seconds = time.perf_counter() - t0
        values = [float(v) for v, _ in outcome]
        checks = [c for _, c in outcome]
        ok = not error and bool(outcome) and all(
            c.passes(v) for v, c in zip(values, checks))
        if not ok and not error:
            print(f"route {name} failed its check: values {values}, "
                  f"checks {checks}", file=sys.stderr)
        self.results.append(RouteResult(name, len(self.results), self.pass_index,
                                        seconds, values, checks, ok, error))
        if self.after_route is not None:
            self.paused_s += self.after_route()


class Workload:
    name = ""
    keep_pair = False  # keep the level-0 Landau pair for the BLAS probe
    kept_pair = None

    def __init__(self, seed: int, refs: dict, workdir: Path):
        """Build the inputs; workdir is scratch space inside the checkout."""
        self.refs = refs

    def ref(self, route: str, i: int = 0) -> float:
        """Stored reference value; NaN (a failed check) when missing."""
        vals = self.refs.get(route, [])
        return float(vals[i]) if i < len(vals) else math.nan

    def inputs_digest(self) -> str:
        """Hash of the seeded inputs, for the reproducibility self-check."""
        h = hashlib.sha256()
        for item in self.seeded_inputs():
            h.update(np.ascontiguousarray(item).tobytes())
        return h.hexdigest()

    def seeded_inputs(self) -> list:
        return []

    def run_pass(self, run: Runner):
        raise NotImplementedError


class LandauDisk(Workload):
    """Dense N^3 work on the radius-8 truncated Landau pair (N = 2880).

    The inputs are deterministic; the seed is unused.
    """

    name = "landau-disk"

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.grid = landau.polar_disk_grid(8.0)
        self.u = gauge.flux_unitary(1)

    def run_pass(self, run: Runner):
        pairs = {}

        def pair(m):
            def fn():
                with run.span("landau.truncated_pair"):
                    P, Q = landau.truncated_projection_pair(m, self.u, self.grid)
                pairs[m] = (P, Q)
                run.count("landau.pair_n", P.dim)
                return [(P.idempotency_residual,
                         near(0.0, self.ref(f"m{m}/pair")))]
            return fn

        def odd_trace(m):
            def fn():
                P, Q = pairs[m]
                with run.span("projpair.odd_trace"):
                    rep = projpair.index_by_odd_trace(Q, P, n=1)
                return [(rep.value, near(INDEX, self.ref(f"m{m}/odd-trace")))]
            return fn

        def spectral_count():
            P, Q = pairs[0]
            with run.span("projpair.spectral_count"):
                rep = projpair.index_by_spectral_count(Q, P)
            return [(rep.value, near(INDEX, self.ref("m0/spectral-count")))]

        def fedosov():
            P, _ = pairs[0]
            with run.span("gauge.grid_phase"):
                phases = self.u(self.grid.nodes)
            with run.span("projpair.unitary_check"):
                U = projpair.UnitaryMatrix(np.diag(phases))
            with run.span("projpair.fedosov"):
                rep = projpair.index_by_fedosov(P, U, n=1)
            return [(rep.value, pinned(self.ref("m0/fedosov")))]

        run.route("m0/pair", pair(0))
        run.route("m0/odd-trace", odd_trace(0))
        run.route("m0/spectral-count", spectral_count)
        run.route("m0/fedosov", fedosov)
        if self.keep_pair:
            self.kept_pair = pairs.get(0)
        pairs.clear()
        run.route("m1/pair", pair(1))
        run.route("m1/odd-trace", odd_trace(1))
        pairs.clear()


class Lattice(Workload):
    """Hofstadter model at flux 1/3: eigh and mid-size projections."""

    name = "lattice"

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        rng = np.random.default_rng(seed)
        self.disorder_seeds = [int(s) for s in rng.integers(0, 2**31, size=10)]
        self.cli_out = workdir / "cli-lattice-index"

    def seeded_inputs(self):
        return [np.array(self.disorder_seeds)]

    def _pipeline(self, run, model, center):
        with run.span("lattice.build_hamiltonian"):
            H = lattice.build_hamiltonian(model)
        with run.span("lattice.gap_projection"):
            gp = lattice.gap_projection(H, FERMI)
        with run.span("lattice.flux_unitary"):
            U = lattice.lattice_flux_unitary(model, center)
        return gp, U

    def run_pass(self, run: Runner):
        clean = {}

        def index(n):
            def fn():
                if n == 1:
                    model = lattice.MagneticLatticeModel(40, 40, FLUX)
                    gp, U = self._pipeline(run, model, (19.5, 19.5))
                    clean.update(model=model, gp=gp, U=U)
                    run.count("lattice.sites", gp.projection.dim)
                with run.span("lattice.index"):
                    rep = lattice.lattice_index(clean["gp"], clean["U"], n=n)
                return [(rep.value, near(INDEX, self.ref(f"L40/index-n{n}")))]
            return fn

        def decay():
            with run.span("lattice.decay_fit"):
                slope, r2 = lattice.decay_fit(clean["gp"], clean["model"])
            return [(slope, below(0.0)), (r2, near(1.0, self.ref("L40/decay-fit", 1)))]

        def disorder():
            model = lattice.MagneticLatticeModel(24, 24, FLUX)
            gp, U = self._pipeline(run, model, (11.5, 11.5))
            ens = lattice.DisorderEnsemble(base_model=model,
                                           amplitude=0.2 * gp.gap_width,
                                           seeds=self.disorder_seeds)
            with run.span("lattice.disorder"):
                reports = lattice.disorder_constancy(ens, FERMI, U)
            return [(r.value, within(INDEX, 5e-2)) for r in reports]

        def wedge(route, mask_rows, mask_cols, center, oracle):
            def fn():
                mask = None
                if mask_rows is not None:
                    mask = np.zeros((24, 24), dtype=bool)
                    mask[mask_rows, mask_cols] = True
                model = lattice.MagneticLatticeModel(24, 24, FLUX, domain_mask=mask)
                with run.span("lattice.wedge"):
                    rep = lattice.wedge_experiment(model, center, FERMI)
                return [(rep.value, near(oracle, self.ref(route)))]
            return fn

        def cli_lattice_index():
            argv = ["lattice-index", "--size", "32", "--out", str(self.cli_out),
                    "--format", "json"]
            with contextlib.redirect_stdout(io.StringIO()):
                with run.span("cli.lattice_index"):
                    status = cli.main(argv)
            rows = json.loads((self.cli_out / "report.json").read_text())["rows"]
            out = [(status, exact(0.0))]
            for i, row in enumerate(rows):
                out.append((row["value"],
                            near(INDEX, self.ref("cli/lattice-index-32", i))))
            return out

        run.route("L40/index-n1", index(1))
        run.route("L40/index-n2", index(2))
        run.route("L40/decay-fit", decay)
        clean.clear()
        run.route("L24/disorder", disorder)
        run.route("wedge/full-plane", wedge("wedge/full-plane", None, None,
                                            (11.5, 11.5), INDEX))
        run.route("wedge/flux-outside", wedge("wedge/flux-outside",
                                              slice(12, None), slice(12, None),
                                              (11.4, 11.4), 0.0))
        run.route("wedge/half-plane", wedge("wedge/half-plane", slice(3, None),
                                            slice(None), (13.5, 11.5), INDEX))
        run.route("cli/lattice-index-32", cli_lattice_index)


def sample_triangle(rng) -> quadrature.Triangle:
    """Random triangle in [-3, 3]^2, as the connes-area experiment draws it."""
    while True:
        pts = rng.uniform(-3.0, 3.0, size=(3, 2))
        tri = quadrature.Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
        seps = [np.hypot(*(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0))]
        if min(seps) > 0.05 and abs(tri.oriented_area_twice()) >= 0.05:
            return tri


class Integrals(Workload):
    """O(N^2) wedge and triple-kernel integrals, Monte Carlo, small pairs."""

    name = "integrals"
    BOX_L = (2.0, 3.0, 4.5, 6.0)
    MC_SAMPLES = 4_000_000
    SUITE_PAIRS = 200

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        tri_seq, mc_seq, suite_seq = np.random.SeedSequence(seed).spawn(3)
        tri_rng = np.random.default_rng(tri_seq)
        self.triangles = [sample_triangle(tri_rng) for _ in range(20)]
        self.mc_seed = int(mc_seq.generate_state(1)[0])
        rng = np.random.default_rng(suite_seq)
        self.suite = []
        for _ in range(self.SUITE_PAIRS):
            dim = int(rng.integers(4, 65))
            P, Q, R = (projpair.random_projection(rng, dim, int(rng.integers(1, dim)))
                       for _ in range(3))
            self.suite.append((P, Q, R, projpair.random_unitary(rng, dim)))
        self.kernels = {m: landau.landau_kernel(m) for m in (0, 1)}
        self.switches = hall.SwitchPair(gauge.tanh_switch(1.0), gauge.tanh_switch(1.0))
        self.unitaries = {w: gauge.flux_unitary(w) for w in (1, 2, -1)}

    def seeded_inputs(self):
        tris = np.array([[t.a, t.b, t.c] for t in self.triangles])
        mats = [m for quad in self.suite for m in (quad[0].matrix, quad[1].matrix,
                                                   quad[2].matrix, quad[3].matrix)]
        return [tris, np.array([self.mc_seed])] + mats

    def run_pass(self, run: Runner):
        index_4d = {}

        def integral_4d(m):
            # the engine's default grid for level m, passed explicitly so the
            # node count is known to the benchmark
            n = 46 + 8 * m
            spec = quadrature.QuadratureSpec(outer_radius=7.0 + 1.5 * m, radial_nodes=n)

            def fn():
                with run.span("quadrature.index_4d"):
                    val = quadrature.index_integral_4d(self.kernels[m], winding=1,
                                                       spec=spec)
                run.count("quadrature.grid_nodes", n * n, total=True)
                index_4d[m] = val.real
                return [(val.real, near(INDEX, self.ref(f"m{m}/index-4d")))]
            return fn

        def closed_form(m):
            def fn():
                with run.span("hall.closed_form"):
                    q = hall.hall_transport_closed_form(self.kernels[m])
                return [(q, near(1.0, self.ref(f"m{m}/closed-form")))]
            return fn

        def box(m):
            def fn():
                with run.span("hall.box"):
                    rows = hall.hall_transport_box(self.kernels[m], self.switches,
                                                   self.BOX_L)
                return [(q, near(1.0, self.ref(f"m{m}/box", i)))
                        for i, (_, q) in enumerate(rows)]
            return fn

        def kubo(m):
            def fn():
                with run.span("hall.kubo"):
                    k = hall.kubo_box(self.kernels[m], 6.0)
                return [(k, near(1.0 / (2.0 * math.pi), self.ref(f"m{m}/kubo")))]
            return fn

        def shift(m):
            def fn():
                with run.span("landau.flux_matrix"):
                    mat = landau.flux_matrix(m, n_max=20)
                with run.span("landau.shift_index"):
                    k = landau.shift_index(mat)
                return [(k, exact(INDEX))]
            return fn

        def monte_carlo():
            spec = quadrature.QuadratureSpec(mc_samples=self.MC_SAMPLES, seed=self.mc_seed)
            with run.span("quadrature.mc"):
                est = quadrature.index_integral_6d_mc(self.kernels[0],
                                                      self.unitaries[1], spec)
            run.count("quadrature.mc_samples", est.samples)
            run.count("quadrature.mc_var_per_sample", est.std_error ** 2 * est.samples)
            # the unreduced trace integral carries the opposite orientation
            return [(est.value.real, within(-index_4d[0], 5.0 * est.std_error)),
                    (est.samples, exact(self.MC_SAMPLES))]

        def connes():
            out = []
            for tri in self.triangles:
                with run.span("quadrature.connes_area"):
                    val = quadrature.connes_area(self.unitaries[1], tri)
                oracle = 2j * math.pi * tri.oriented_area_twice()
                out.append((abs(val - oracle) / abs(oracle), within(0.0, 1e-3)))
            return out

        def winding():
            out = []
            for w, u in self.unitaries.items():
                with run.span("gauge.winding"):
                    val = gauge.numerical_winding(u)
                out.append((val, near(float(w), self.ref("winding", len(out)))))
            return out

        def identity_suite():
            worst = np.zeros(6)
            for P, Q, R, W in self.suite:
                with run.span("projpair.identity_suite"):
                    worst = np.maximum(worst, _identity_residuals(P, Q, R, W))
            return [(v, within(0.0, 1e-8)) for v in worst]

        for m in (0, 1):
            run.route(f"m{m}/index-4d", integral_4d(m))
            run.route(f"m{m}/closed-form", closed_form(m))
            run.route(f"m{m}/box", box(m))
            run.route(f"m{m}/kubo", kubo(m))
        for m in (0, 1, 2):
            run.route(f"m{m}/shift-index", shift(m))
        run.route("mc", monte_carlo)
        run.route("connes-area", connes)
        run.route("winding", winding)
        run.route("proj-suite", identity_suite)


def _identity_residuals(P, Q, R, W) -> np.ndarray:
    """The proj-suite identities on one pair: rank difference, antisymmetry,
    complement, conjugation, odd-power independence and additivity."""
    dim = P.dim
    ipq = projpair.index_by_spectral_count(P, Q).value
    iqp = projpair.index_by_spectral_count(Q, P).value
    eye = np.eye(dim)
    icc = projpair.index_by_spectral_count(
        projpair.HermitianProjection(eye - P.matrix),
        projpair.HermitianProjection(eye - Q.matrix)).value
    w = W.matrix
    iww = projpair.index_by_spectral_count(
        projpair.HermitianProjection(w @ P.matrix @ w.conj().T),
        projpair.HermitianProjection(w @ Q.matrix @ w.conj().T)).value
    traces = projpair.odd_trace_stability(P, Q, n_max=3)
    left, right = projpair.additivity_check(P, Q, R)
    return np.array([
        abs(ipq - (P.rank() - Q.rank())),
        abs(ipq + iqp),
        abs(ipq + icc),
        abs(iww - ipq),
        max(abs(v - ipq) for _, v in traces),
        abs(left - right),
    ], dtype=float)


WORKLOADS = {w.name: w for w in (LandauDisk, Lattice, Integrals)}
