"""Schedule genomes: the search spaces the adversary optimizers walk.

A *genome* is a plain-data parameterization of one adversarial
schedule.  Two kinds, one protocol:

* :class:`DelayVectorGenome` — a vector of delays in ``(lo, 1]``
  applied by global send index (:class:`repro.sim.adversary
  .VectorDelay`).  Scales to n in the hundreds: the vector length is a
  search knob, not a function of the run length, and replaying the
  vector through the plain :class:`~repro.sim.async_engine.AsyncEngine`
  reproduces the execution bit-identically with no controller in the
  loop.
* :class:`ChoicePrefixGenome` — an exact choice sequence for the
  controlled scheduler (:class:`repro.check.controller
  .ReplayController`, lenient mode), the same representation the beam
  search emits.  Exhaustive in expressive power but only tractable at
  small n; incumbents replay through the plain engine via the recorded
  per-seq delay map (:class:`~repro.check.controller.ReplayDelay`).

Each genome kind pairs with a *space* that knows how to sample, mutate,
and cross genomes, and how to fit/sample a parametric distribution over
them (the cross-entropy method's model).  Spaces carry every fixed
hyperparameter (vector length, bounds, prefix horizon, laziness), so a
genome serializes to a small dict and rebuilds via
:func:`genome_from_dict`.

Genomes never execute anything themselves: :meth:`Genome
.cell_overrides` maps a genome onto :class:`~repro.experiments
.parallel.CellSpec` fields, and the executor does the rest — which is
why the ``opt`` subsystem salt joins no cache key (see
:func:`repro.versioning.cell_salt_vector`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Delay floor for vector genomes; matches UniformRandomDelay's default
#: ``lo`` so optimized schedules search the same legality envelope the
#: random baseline samples.
DEFAULT_LO = 0.05


@dataclass(frozen=True)
class Genome:
    """Base genome: plain data, hashable, executor-ready.

    Subclasses define ``kind`` (the serialization discriminator),
    :meth:`cell_overrides`, and whether their evaluation is
    *controlled* (executes the check subsystem's scheduling loop, which
    decides the salts an atlas entry folds in).
    """

    kind = "?"
    controlled = False

    def cell_overrides(self) -> Dict[str, Any]:
        """CellSpec field overrides that make a cell evaluate this
        genome (``dataclasses.replace(base_spec, **overrides)``)."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def key(self) -> str:
        """Content digest identifying this genome (dedup, atlas)."""
        blob = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class DelayVectorGenome(Genome):
    """Delays indexed by global send order, cycled past the end."""

    values: Tuple[float, ...]

    kind = "delay_vector"
    controlled = False

    def cell_overrides(self) -> Dict[str, Any]:
        return {
            "delay": {"kind": "vector", "values": list(self.values)},
            "controller": None,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "values": list(self.values)}


@dataclass(frozen=True)
class ChoicePrefixGenome(Genome):
    """A lenient-replay choice sequence for the controlled scheduler.

    Lenient semantics (out-of-range or exhausted choices fall back to
    the canonical event) make *every* integer sequence a legal genome —
    mutation and crossover never have to repair anything.
    """

    choices: Tuple[int, ...]
    laziness: float = 0.0

    kind = "choice_prefix"
    controlled = True

    def cell_overrides(self) -> Dict[str, Any]:
        return {
            "delay": {"kind": "unit"},
            "controller": {
                "kind": "replay",
                "choices": list(self.choices),
                "laziness": self.laziness,
            },
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "choices": list(self.choices),
            "laziness": self.laziness,
        }


def genome_from_dict(data: Dict[str, Any]) -> Genome:
    """Rebuild a genome from its :meth:`Genome.as_dict` form."""
    kind = data.get("kind")
    if kind == "delay_vector":
        return DelayVectorGenome(tuple(float(v) for v in data["values"]))
    if kind == "choice_prefix":
        return ChoicePrefixGenome(
            tuple(int(c) for c in data["choices"]),
            laziness=float(data.get("laziness", 0.0)),
        )
    raise ReproError(f"unknown genome kind {kind!r}")


# ----------------------------------------------------------------------
# Spaces
# ----------------------------------------------------------------------
class GenomeSpace:
    """Sampling/mutation/crossover over one genome kind, plus the
    fit/sample pair the cross-entropy method models distributions
    with.  All randomness comes through the caller's ``random.Random``
    so optimizers stay deterministic under their seed."""

    def sample(self, rng: random.Random) -> Genome:
        raise NotImplementedError

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        raise NotImplementedError

    def crossover(
        self, a: Genome, b: Genome, rng: random.Random
    ) -> Genome:
        raise NotImplementedError

    def fit(self, elites: Sequence[Genome]) -> Any:
        """Distribution parameters fitted to an elite set."""
        raise NotImplementedError

    def sample_fit(self, params: Any, rng: random.Random) -> Genome:
        """Draw one genome from fitted parameters."""
        raise NotImplementedError


class DelayVectorSpace(GenomeSpace):
    """Vectors of ``length`` delays in ``(lo, 1]``.

    The CEM model is an independent truncated Gaussian per coordinate;
    ``min_std`` keeps the search from collapsing before convergence.
    """

    def __init__(
        self,
        length: int = 32,
        lo: float = DEFAULT_LO,
        mutation_scale: float = 0.15,
        min_std: float = 0.02,
    ):
        if length < 1:
            raise ReproError("DelayVectorSpace needs length >= 1")
        if not 0 < lo < 1:
            raise ReproError("lo must be in (0, 1)")
        self.length = length
        self.lo = lo
        self.mutation_scale = mutation_scale
        self.min_std = min_std

    def _clip(self, v: float) -> float:
        return min(1.0, max(self.lo, v))

    def sample(self, rng: random.Random) -> DelayVectorGenome:
        return DelayVectorGenome(
            tuple(
                self._clip(rng.uniform(self.lo, 1.0))
                for _ in range(self.length)
            )
        )

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        values = list(genome.values)
        # Perturb a random quarter of the coordinates (at least one).
        k = min(len(values), max(1, len(values) // 4))
        for i in rng.sample(range(len(values)), k):
            values[i] = self._clip(
                values[i] + rng.gauss(0.0, self.mutation_scale)
            )
        return DelayVectorGenome(tuple(values))

    def crossover(
        self, a: Genome, b: Genome, rng: random.Random
    ) -> Genome:
        return DelayVectorGenome(
            tuple(
                av if rng.random() < 0.5 else bv
                for av, bv in zip(a.values, b.values)
            )
        )

    def fit(
        self, elites: Sequence[Genome]
    ) -> List[Tuple[float, float]]:
        params: List[Tuple[float, float]] = []
        for i in range(self.length):
            col = [g.values[i] for g in elites]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / len(col)
            params.append((mean, max(self.min_std, var ** 0.5)))
        return params

    def sample_fit(
        self, params: List[Tuple[float, float]], rng: random.Random
    ) -> DelayVectorGenome:
        return DelayVectorGenome(
            tuple(
                self._clip(rng.gauss(mean, std)) for mean, std in params
            )
        )


class ChoicePrefixSpace(GenomeSpace):
    """Integer sequences of length ``horizon`` with entries in
    ``[0, branch_cap)`` — lenient replay makes every sequence legal.

    The CEM model is an independent categorical per position.
    """

    def __init__(
        self,
        horizon: int = 16,
        branch_cap: int = 4,
        laziness: float = 0.0,
        min_p: float = 0.05,
    ):
        if horizon < 1 or branch_cap < 1:
            raise ReproError(
                "ChoicePrefixSpace needs horizon >= 1, branch_cap >= 1"
            )
        self.horizon = horizon
        self.branch_cap = branch_cap
        self.laziness = laziness
        self.min_p = min_p

    def sample(self, rng: random.Random) -> ChoicePrefixGenome:
        return ChoicePrefixGenome(
            tuple(
                rng.randrange(self.branch_cap)
                for _ in range(self.horizon)
            ),
            laziness=self.laziness,
        )

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        choices = list(genome.choices)
        for i in rng.sample(
            range(len(choices)), max(1, len(choices) // 8)
        ):
            choices[i] = rng.randrange(self.branch_cap)
        return ChoicePrefixGenome(
            tuple(choices), laziness=genome.laziness
        )

    def crossover(
        self, a: Genome, b: Genome, rng: random.Random
    ) -> Genome:
        cut = rng.randrange(1, self.horizon) if self.horizon > 1 else 0
        return ChoicePrefixGenome(
            tuple(a.choices[:cut]) + tuple(b.choices[cut:]),
            laziness=a.laziness,
        )

    def fit(self, elites: Sequence[Genome]) -> List[List[float]]:
        params: List[List[float]] = []
        for i in range(self.horizon):
            counts = [self.min_p] * self.branch_cap
            for g in elites:
                counts[g.choices[i] % self.branch_cap] += 1.0
            total = sum(counts)
            params.append([c / total for c in counts])
        return params

    def sample_fit(
        self, params: List[List[float]], rng: random.Random
    ) -> ChoicePrefixGenome:
        choices = []
        for probs in params:
            r = rng.random()
            acc = 0.0
            idx = len(probs) - 1
            for j, p in enumerate(probs):
                acc += p
                if r < acc:
                    idx = j
                    break
            choices.append(idx)
        return ChoicePrefixGenome(
            tuple(choices), laziness=self.laziness
        )
