"""Route checks and the reference values they compare against.

Every route yields numbers, and each number carries one check:

* ``near``: a value with an oracle may land no farther from the oracle than
  the reference value (produced by the code this benchmark was written
  against) did, plus 1e-8.
* ``pinned``: a raw value with no oracle must stay within 1e-8 of its
  reference.
* ``exact``: an integer result must equal its oracle.
* ``within``: a value from seeded inputs, for which no reference can be
  stored, must land within the library's own tolerance of its oracle.
* ``below``: a value must stay under a bound (the decay-fit slope).

``perturbed`` moves a value 1e-6 in the direction a check should catch; the
self-check uses it to show that every check against a stored reference or an
exact oracle resolves 1e-6.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SLACK = 1e-8
PERTURBATION = 1e-6

_REFS = json.loads((Path(__file__).resolve().parent / "references.json").read_text())


def references(workload: str) -> dict:
    return _REFS.get(workload, {})


@dataclass(frozen=True)
class Check:
    kind: str
    target: float
    slack: float = 0.0

    def passes(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.kind == "below":
            return value < self.target
        return abs(value - self.target) <= self.slack

    def perturbed(self, value: float) -> float:
        """value moved 1e-6 away from the target (upward for ``below``)."""
        if self.kind == "below" or value == self.target:
            return value + PERTURBATION
        return value + math.copysign(PERTURBATION, value - self.target)

    @property
    def uses_reference(self) -> bool:
        return self.kind in ("near", "pinned", "exact")


def near(oracle: float, reference: float) -> Check:
    return Check("near", oracle, abs(reference - oracle) + REFERENCE_SLACK)


def pinned(reference: float) -> Check:
    return Check("pinned", reference, REFERENCE_SLACK)


def exact(oracle: float) -> Check:
    return Check("exact", oracle)


def within(oracle: float, tol: float) -> Check:
    return Check("within", oracle, tol)


def below(bound: float) -> Check:
    return Check("below", bound)
