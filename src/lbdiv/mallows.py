"""Exponential ranking models built on the divergence.

`LovaszMallows` is a density over score vectors in the unit cube centered
at a reference permutation; `ExtendedLovaszMallows` is a distribution over
permutations given a collection of scores and per-row concentrations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .permutation import Permutation, all_permutations, induced_ordering
from .submodular import SetFunction, from_descriptor
from .aggregate import ScoreMatrix
from .divergence import lb_divergence, lb_divergence_batch

EXACT_NORMALIZATION_LIMIT = 8
_MC_CHUNK = 4096


@dataclass(frozen=True)
class LovaszMallows:
    """exp(-concentration * d(x || reference)) / Z over the unit cube."""

    generator: SetFunction
    reference: Permutation
    concentration: float

    def __post_init__(self):
        if self.concentration < 0:
            raise ValueError("concentration must be >= 0")
        if len(self.reference) != self.generator.n:
            raise ValueError("reference length does not match the ground set")

    def to_json(self) -> str:
        return json.dumps({
            "generator": self.generator.descriptor(),
            "reference": list(self.reference.items),
            "concentration": self.concentration,
        })

    @classmethod
    def from_json(cls, text: str) -> "LovaszMallows":
        raw = json.loads(text)
        return cls(from_descriptor(raw["generator"]),
                   Permutation(raw["reference"]), float(raw["concentration"]))


def log_density_unnormalized(model: LovaszMallows, x) -> float:
    """-concentration * divergence; x must lie in [0, 1]^n."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("scores must lie in the unit cube [0, 1]^n")
    return -model.concentration * lb_divergence(model.generator, x,
                                                model.reference)


def estimate_log_Z(model: LovaszMallows, samples: int, seed: int = 0):
    """Monte-Carlo estimate of log Z by uniform sampling of the cube.

    Returns (log_Z_estimate, standard_error_of_log_Z). Sampling runs in
    fixed-size chunks with a deterministic per-chunk seed stream, so the
    result depends only on (seed, samples).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    n = model.generator.n
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(samples / _MC_CHUNK))
    total = 0.0
    total_sq = 0.0
    done = 0
    for chunk_seed in seeds:
        count = min(_MC_CHUNK, samples - done)
        X = np.random.default_rng(chunk_seed).random((count, n))
        vals = np.exp(-model.concentration *
                      lb_divergence_batch(model.generator, X, model.reference))
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean ** 2, 0.0)
    se_mean = math.sqrt(var / samples)
    return math.log(mean), se_mean / mean


@dataclass(frozen=True)
class ExtendedLovaszMallows:
    """exp(-sum_i theta_i d(x_i || sigma)) / Z over permutations."""

    generator: SetFunction
    scores: ScoreMatrix
    concentrations: tuple

    def __post_init__(self):
        theta = tuple(float(t) for t in self.concentrations)
        if len(theta) != self.scores.n_rows:
            raise ValueError("one concentration per score row required")
        if any(t < 0 for t in theta):
            raise ValueError("concentrations must be >= 0")
        if self.scores.n_items != self.generator.n:
            raise ValueError("score width does not match the ground set")
        object.__setattr__(self, "concentrations", theta)

    def to_json(self) -> str:
        return json.dumps({
            "generator": self.generator.descriptor(),
            "scores": self.scores.rows.tolist(),
            "concentrations": list(self.concentrations),
        })

    @classmethod
    def from_json(cls, text: str) -> "ExtendedLovaszMallows":
        raw = json.loads(text)
        return cls(from_descriptor(raw["generator"]),
                   ScoreMatrix(raw["scores"]), tuple(raw["concentrations"]))


class ExtendedDensity(NamedTuple):
    log_density: float
    normalized: bool


def _neg_energy(model: ExtendedLovaszMallows, sigma: Permutation) -> float:
    theta = np.array(model.concentrations)
    return -float(theta @ lb_divergence_batch(model.generator,
                                              model.scores.rows, sigma))


def extended_log_density(model: ExtendedLovaszMallows,
                         sigma: Permutation) -> ExtendedDensity:
    """Log probability of sigma under the extended model.

    Exact normalization sums over all n! permutations and is capped at
    n <= 8; beyond that the unnormalized value is returned with
    normalized=False.
    """
    n = model.generator.n
    value = _neg_energy(model, sigma)
    if n > EXACT_NORMALIZATION_LIMIT:
        return ExtendedDensity(value, False)
    energies = np.array([_neg_energy(model, s) for s in all_permutations(n)])
    shift = energies.max()
    log_Z = shift + math.log(np.exp(energies - shift).sum())
    return ExtendedDensity(value - log_Z, True)


def map_permutation(model: ExtendedLovaszMallows) -> Permutation:
    """Mode of the extended model: the ordering of the concentration-weighted
    mean of the score rows (closed form, no enumeration)."""
    theta = np.array(model.concentrations)
    if np.all(theta == 0):
        raise ValueError("all concentrations are zero: no unique mode")
    return induced_ordering(theta @ model.scores.rows / theta.sum())
