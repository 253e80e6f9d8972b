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

from .permutation import Permutation, induced_ordering
from .submodular import SetFunction, from_descriptor
from .aggregate import ScoreMatrix
from .divergence import lb_divergence, lb_divergence_batch
from .lovasz import ENUMERATION_LIMIT, extreme_subgradient, extreme_subgradients

_MC_CHUNK = 4096


@dataclass(frozen=True)
class LovaszMallows:
    """exp(-concentration * d(x || reference)) / Z over the unit cube."""

    generator: SetFunction
    reference: Permutation
    concentration: float

    def __post_init__(self):
        if not 0 <= self.concentration < math.inf:
            raise ValueError("concentration must be finite and >= 0")
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
        if not all(0 <= t < math.inf for t in theta):
            raise ValueError("concentrations must be finite and >= 0")
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


def extended_log_density(model: ExtendedLovaszMallows,
                         sigma: Permutation) -> ExtendedDensity:
    """Log probability of sigma under the extended model.

    Normalized exactly over all n! permutations for n <= ENUMERATION_LIMIT
    as -log sum_pi exp <h_pi - h_sigma, X^T theta> (the f-hat terms cancel);
    beyond that the unnormalized value comes with normalized=False.
    """
    theta = np.array(model.concentrations)
    if model.generator.n > ENUMERATION_LIMIT:
        return ExtendedDensity(-float(theta @ lb_divergence_batch(
            model.generator, model.scores.rows, sigma)), False)
    v = theta @ model.scores.rows
    delta = (extreme_subgradients(model.generator)[1]
             - extreme_subgradient(model.generator, sigma)) @ v
    top = delta.max()
    return ExtendedDensity(-float(top + math.log(np.exp(delta - top).sum())), True)


def map_permutation(model: ExtendedLovaszMallows) -> Permutation:
    """Mode of the extended model: the ordering of the concentration-weighted
    mean of the score rows (closed form, no enumeration)."""
    theta = np.array(model.concentrations)
    if np.all(theta == 0):
        raise ValueError("all concentrations are zero: no unique mode")
    return induced_ordering(theta @ model.scores.rows / theta.sum())
