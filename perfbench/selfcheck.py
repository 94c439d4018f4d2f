"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workloads landau-disk lattice integrals]

Checks that
  * the same seed gives identical seeded inputs (disorder draws, triangles,
    Monte Carlo seed, proj-suite pairs) and a different seed changes them;
  * every route result checked against a stored reference or an exact
    oracle is reported as failed once it is moved 1e-6 away from its target
    (one pass of each named workload, about a minute for all three);
  * layers.json maps exactly the per_layer metrics of BENCHMARK.json, and
    BENCHMARK.json names the workloads of workloads.py.
Exits 0 when every check holds.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import references  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


class PerturbingRunner(Runner):
    """Moves every reference-checked value 1e-6 away from its target."""

    def route(self, name, fn):
        def perturbed():
            return [(c.perturbed(float(v)) if c.uses_reference else v, c)
                    for v, c in fn()]
        super().route(name, perturbed)


def check_inputs(workdir: Path) -> list:
    problems = []
    for name in ("lattice", "integrals"):
        cls = WORKLOADS[name]
        a, b, c = (cls(seed, references(name), workdir).inputs_digest()
                   for seed in (11, 11, 12))
        if a != b:
            problems.append(f"{name}: seed 11 gave two different inputs")
        if a == c:
            problems.append(f"{name}: seeds 11 and 12 gave the same inputs")
    return problems


def check_perturbation(name: str, workdir: Path) -> list:
    workload = WORKLOADS[name](0, references(name), workdir)
    runner = PerturbingRunner(Tracer(False))
    workload.run_pass(runner)
    problems = []
    for res in runner.results:
        referenced = any(c.uses_reference for c in res.checks)
        if res.error:
            problems.append(f"{name} {res.route}: raised instead of being checked")
        elif referenced and res.ok:
            problems.append(f"{name} {res.route}: a 1e-6 perturbation passed")
        elif not referenced and not res.ok:
            problems.append(f"{name} {res.route}: failed without a perturbation")
    return problems


def check_benchmark_json() -> list:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    problems = []
    if [m["name"] for m in bench["per_layer"]] != list(layers):
        problems.append("layers.json does not map exactly the per_layer metrics")
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-check of the benchmark.")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    args = parser.parse_args()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        problems = check_benchmark_json() + check_inputs(Path(tmp))
        for name in args.workloads:
            problems += check_perturbation(name, Path(tmp))
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
