"""Route-level benchmark of fluxlab.

    python3 perfbench/run.py --workload {landau-disk,lattice,integrals} \\
        --seed N --seconds S --trace {0,1}

A single-process, closed-loop benchmark: it runs the workload's routes (chains
of public fluxlab calls that each yield a checked number) pass after pass,
each call starting only after the previous one returned, for about
--seconds (see _run_passes).  OpenBLAS gets one thread per CPU the process
may use.

--trace 0 reports the end-to-end metrics.  --trace 1 records a span around
every call into a fluxlab module (spans.py) and reports the per-layer
metrics, plus, on landau-disk, the level-0 odd trace rerun in a child
process pinned to one BLAS thread.  Metric names and units are those of
BENCHMARK.json; perfbench/layers.json says which end-to-end metric each
per-layer metric should move.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Every route result, its timing, the machine record and
the spans are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 24  # set-up probes per run, about: one every --seconds / 24 s
CHILD_TIMEOUT_S = 170

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

# Spans whose calls differ in size are timed on one route only, so that each
# per-call median covers calls of one size.
SPAN_ROUTE = {
    "landau.truncated_pair": "m0/pair",
    "projpair.odd_trace": "m0/odd-trace",
    "lattice.build_hamiltonian": "L40/index-n1",
    "lattice.gap_projection": "L40/index-n1",
    "lattice.flux_unitary": "L40/index-n1",
    "lattice.index": "L40/index-n1",
    "lattice.wedge": "wedge/full-plane",
    "quadrature.index_4d": "m0/index-4d",
    "hall.closed_form": "m0/closed-form",
    "hall.box": "m0/box",
    "hall.kubo": "m0/kubo",
    "landau.flux_matrix": "m0/shift-index",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["landau-disk", "lattice", "integrals"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import fluxlab and build the inputs, then exit")
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class PassRecord:
    index: int
    wall_s: float
    cpu_s: float
    runner: object


def _run_passes(workload, seconds: float, tracer, probes):
    """At least one pass; another one while it ends the run nearer to the
    budget than stopping now would (a median-length pass is assumed).

    Set-up probes run before the first pass, between routes and after the
    last pass; their time counts neither in a pass nor in the budget.
    """
    from workloads import Runner

    records = []
    elapsed = 0.0
    probes(force=True)
    while True:
        index = len(records)
        tracer.pass_index = index
        runner = Runner(tracer, pass_index=index, after_route=probes)
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        workload.run_pass(runner)
        wall = time.perf_counter() - t0 - runner.paused_s
        records.append(PassRecord(index, wall, _cpu_seconds() - c0, runner))
        elapsed += wall
        if elapsed + 0.5 * statistics.median(r.wall_s for r in records) > seconds:
            probes(force=True)
            return records


class SetupProbes:
    """Set-up probes spread over the run, at most one per ``every_s``
    seconds, so that their median covers the same stretch of time as the
    passes rather than a moment of it."""

    def __init__(self, args, every_s: float):
        self.args = args
        self.every_s = every_s
        self.times = []
        self.last = -math.inf

    def __call__(self, force: bool = False) -> float:
        """Run a probe if one is due; return the seconds this call took."""
        t0 = time.perf_counter()
        if force or t0 - self.last >= self.every_s:
            self.times.append(_setup_probe_seconds(self.args))
            self.last = time.perf_counter()
        return time.perf_counter() - t0


def _setup_probe_seconds(args) -> float:
    """Wall time of a fresh process that imports fluxlab and builds inputs.

    No timeout: with one, the wait polls and rounds the time up to 50 ms.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _blas_probe_route(workload, workdir: Path):
    """Route rerunning the level-0 odd trace in a one-BLAS-thread child."""
    from checks import exact, near
    from spans import Tracer
    from workloads import INDEX, Runner

    runner = Runner(Tracer(False), pass_index=-1)
    probe = {}

    def fn():
        path = workdir / "pair-m0.pickle"
        with open(path, "wb") as fh:
            pickle.dump(workload.kept_pair, fh, protocol=pickle.HIGHEST_PROTOCOL)
        workload.kept_pair = None
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "blas_probe.py"), str(path)],
                                  env=env, cwd=ROOT, check=True, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        finally:
            path.unlink()
        probe.update(json.loads(proc.stdout.splitlines()[-1]))
        return [(probe["value"], near(INDEX, workload.ref("m0/odd-trace"))),
                (probe["blas_threads"], exact(1))]

    runner.route("m0/odd-trace-1t", fn)
    return runner, probe.get("seconds", 0.0)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(records, setup_times) -> dict:
    results = [res for r in records for res in r.runner.results]
    return {
        "setup_s": _median(setup_times),
        "study_s": _median([r.wall_s for r in records]),
        "cpu_s": _median([r.cpu_s for r in records]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": sum(res.ok for res in results) / len(results),
    }


def _per_layer(records, tracer, odd_trace_1t_s: float) -> dict:
    """Every per_layer metric of BENCHMARK.json.  A ``<span>_s`` name with no
    rule of its own is the median seconds per call of that span."""
    from spans import MODULES

    study = _median([r.wall_s for r in records])
    out = {}
    busy = [tracer.self_times(r.index) for r in records]
    for module in MODULES:
        out[f"{module}.busy_s"] = _median([b[module] for b in busy])
        out[f"{module}.share"] = out[f"{module}.busy_s"] / study
    counts = records[-1].runner.counts
    for name in ("landau.pair_n", "lattice.sites", "quadrature.grid_nodes",
                 "quadrature.mc_samples", "quadrature.mc_var_per_sample"):
        out[name] = float(counts.get(name, 0))
    out["trace.overhead_s"] = _median([tracer.bookkeeping_s.get(r.index, 0.0)
                                       for r in records])
    out["trace.unattributed_s"] = _median([r.wall_s - sum(b.values())
                                           for r, b in zip(records, busy)])
    odd_mt = tracer.median("projpair.odd_trace", SPAN_ROUTE["projpair.odd_trace"])
    out["projpair.odd_trace_1t_s"] = odd_trace_1t_s
    out["blas.speedup"] = odd_trace_1t_s / odd_mt if odd_mt else 0.0
    mc_s = tracer.median("quadrature.mc")
    out["quadrature.mc_samples_per_s"] = out["quadrature.mc_samples"] / mc_s if mc_s else 0.0
    for m in BENCH["per_layer"]:
        span = m["name"].removesuffix("_s")
        if m["name"] not in out and span != m["name"]:
            out[m["name"]] = tracer.median(span, SPAN_ROUTE.get(span))
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fluxlab" / "__init__.py").is_file():
        print(f"perfbench: no fluxlab sources under {SRC}", file=sys.stderr)
        return 2
    import machine

    # one OpenBLAS thread per usable CPU; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = str(machine.usable_cpus())
    sys.path.insert(0, str(SRC))
    from checks import references
    from spans import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, references(args.workload), OUT)
        return 0

    _setup_probe_seconds(args)  # warm-up: bytecode caches, page cache
    probes = SetupProbes(args, every_s=args.seconds / SETUP_PROBES)
    tracer = Tracer(bool(args.trace))
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, references(args.workload),
                                            Path(tmp))
        workload.keep_pair = bool(args.trace)
        records = _run_passes(workload, args.seconds, tracer, probes)
        end_to_end = _end_to_end(records, probes.times)
        runners = [r.runner for r in records]
        odd_trace_1t_s = 0.0
        if workload.kept_pair is not None:
            probe_runner, odd_trace_1t_s = _blas_probe_route(workload, Path(tmp))
            runners.append(probe_runner)
    per_layer = _per_layer(records, tracer, odd_trace_1t_s) if args.trace else {}

    results = [res for runner in runners for res in runner.results]
    failed = sum(not res.ok for res in results)
    values = per_layer if args.trace else end_to_end
    shown = {m["name"]: values[m["name"]]
             for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    machine_record = machine.record(ROOT)

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record,
        "setup_times_s": probes.times,
        "passes": [{"index": r.index, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "counts": r.runner.counts} for r in records],
        "routes": [res.as_json() for res in results],
        "end_to_end": end_to_end, "per_layer": per_layer,
    }, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans_{tag}.json")

    print("machine " + json.dumps(machine_record))
    if args.trace:
        for name, value in end_to_end.items():
            print(f"{name} (traced run) = {value:.6g} {UNITS[name]}")
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
