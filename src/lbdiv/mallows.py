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

from .permutation import Permutation, _ordering, _scores, induced_ordering
from .submodular import (_CHECK_LIMIT, SetFunction, _subset_values,
                         from_descriptor)
from .aggregate import ScoreMatrix
from .divergence import lb_divergence, lb_divergence_batch
from .lovasz import extreme_subgradient

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
        _ordering(self.reference, self.generator.n)

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
    x = _scores(x, model.generator.n)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("scores must lie in the unit cube [0, 1]^n")
    return -model.concentration * lb_divergence(model.generator, x,
                                                model.reference)


def estimate_log_Z(model: LovaszMallows, samples: int, seed: int = 0):
    """Monte-Carlo estimate of log Z by uniform sampling of the cube.

    Returns (log_Z_estimate, standard_error_of_log_Z). Sampling runs in
    fixed-size chunks with a deterministic per-chunk seed stream, so the
    result depends only on (seed, samples). The weights exp(-theta d) are
    summed relative to the largest seen so far, exp(top), so a large
    concentration cannot underflow every weight to zero.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    n = model.generator.n
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(samples / _MC_CHUNK))
    top = -math.inf
    total = 0.0
    total_sq = 0.0
    done = 0
    for chunk_seed in seeds:
        count = min(_MC_CHUNK, samples - done)
        X = np.random.default_rng(chunk_seed).random((count, n))
        log_w = -model.concentration * lb_divergence_batch(
            model.generator, X, model.reference)
        peak = float(log_w.max())
        if peak > top:  # rescale the sums to the new maximum
            scale = math.exp(top - peak)
            total, total_sq, top = total * scale, total_sq * scale ** 2, peak
        vals = np.exp(log_w - top)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean ** 2, 0.0)
    se_mean = math.sqrt(var / samples)
    return top + math.log(mean), se_mean / mean


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

    With v = X^T theta the f-hat terms cancel: log p(sigma) = <h_sigma, v>
    - log Z, log Z = log sum_pi exp <h_pi, v>. Along pi's prefix chain,
    <h_pi, v> gains v_i (f(S + i) - f(S)) per step, so log Z = L(V) for
    L(empty) = 0, L(S) = logsumexp over i in S of L(S - i) + v_i (f(S) -
    f(S - i)) (Held and Karp 1962, with logsumexp in place of min), taken
    layer by layer over the 2^n values of f-hat at the indicators, with
    f(empty) = 0 as in h's chain. Normalized for n <= 20; beyond that the
    unnormalized value comes with normalized=False.
    """
    f, theta = model.generator, np.array(model.concentrations)
    if f.n > _CHECK_LIMIT:
        return ExtendedDensity(-float(theta @ lb_divergence_batch(
            f, model.scores.rows, sigma)), False)
    v = theta @ model.scores.rows
    energy = float(extreme_subgradient(f, sigma) @ v)
    F = _subset_values(f, np.arange(f.n))
    masks = np.arange(F.size)
    sizes = np.bitwise_count(masks)
    L = np.full(F.size, -np.inf)
    L[0] = 0.0
    for k in range(1, f.n + 1):
        S = masks[sizes == k, None]
        # T = S - i for i in S; for i outside S it lies a layer up, at -inf
        T = S ^ 1 << np.arange(f.n)
        terms = L[T] + v * (F[S] - F[T])
        top = terms.max(axis=1, keepdims=True)
        L[S] = top + np.log(np.exp(terms - top).sum(axis=1, keepdims=True))
    return ExtendedDensity(energy - float(L[-1]), True)


def map_permutation(model: ExtendedLovaszMallows) -> Permutation:
    """Mode of the extended model: the ordering of the concentration-weighted
    mean of the score rows (closed form, no enumeration)."""
    theta = np.array(model.concentrations)
    if np.all(theta == 0):
        raise ValueError("all concentrations are zero: no unique mode")
    return induced_ordering(theta @ model.scores.rows / theta.sum())
