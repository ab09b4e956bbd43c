"""Deterministic random generation of family states for property sweeps.

Streams are driven by numpy's counter-based Philox4x64-10 bit generator.
Each sample index gets its own generator seeded through
``SeedSequence(entropy=seed, spawn_key=(index,))``, so a stream is
bit-identical for a given (seed, index) regardless of how many samples
are drawn, in which order, or on how many workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateInputError
from .states import PureGeneralizedW, SystemShape, WMixedState

KINDS = ("mixed_ginibre", "pure_sphere", "structured_zero_row")


@dataclass(frozen=True)
class SampleConfig:
    """What to draw: register shape, sample count, seed, and generator kind."""

    n_parties: int
    local_dim: int = 2
    count: int = 1
    seed: int = 0
    kind: str = "mixed_ginibre"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown sample kind {self.kind!r}; pick from {KINDS}")

    @property
    def shape(self) -> SystemShape:
        return SystemShape(self.n_parties, self.local_dim)


def generator_for(seed: int, index: int) -> np.random.Generator:
    """Philox generator for one sample, independent of draw order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def _ginibre_coeff(rng: np.random.Generator, k: int) -> np.ndarray:
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    coeff = g @ g.conj().T
    coeff = (coeff + coeff.conj().T) / 2.0  # exact hermiticity, bitwise
    return coeff / float(coeff.trace().real)


def random_mixed(config: SampleConfig) -> Iterator[WMixedState]:
    """Stream mixed family states: full-rank Ginibre or structured samples.

    ``mixed_ginibre`` draws coeff = G G† / tr(G G†) from a complex
    standard-normal G, which is generically genuine entangled on every
    cut. ``structured_zero_row`` additionally zeroes the full label
    block of one randomly chosen party (diagonal included) and
    renormalizes, forcing exact separability on that one cut.
    """
    if config.kind not in ("mixed_ginibre", "structured_zero_row"):
        raise ValueError(f"random_mixed cannot draw kind {config.kind!r}")
    shape = config.shape
    k = shape.n_labels
    for index in range(config.count):
        rng = generator_for(config.seed, index)
        coeff = _ginibre_coeff(rng, k)
        if config.kind == "structured_zero_row":
            party = int(rng.integers(1, shape.n_parties + 1))
            block = shape.labels_of_parties([party])
            coeff[block, :] = 0.0
            coeff[:, block] = 0.0
            remaining = float(coeff.trace().real)
            if not remaining > 1e-9:
                raise DegenerateInputError("zeroed block swallowed all the mass")
            coeff = coeff / remaining
        yield WMixedState(shape, 0.0, coeff)


def random_pure(config: SampleConfig) -> Iterator[PureGeneralizedW]:
    """Stream pure family states uniform on the amplitude sphere."""
    if config.kind != "pure_sphere":
        raise ValueError(f"random_pure cannot draw kind {config.kind!r}")
    shape = config.shape
    k = shape.n_labels
    for index in range(config.count):
        rng = generator_for(config.seed, index)
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        norm = float(np.linalg.norm(z))
        if not norm > 1e-6:
            raise DegenerateInputError("degenerate draw from the complex normal")
        yield PureGeneralizedW(shape, z / norm)


def zeroed_parties(state: WMixedState) -> tuple[int, ...]:
    """Parties whose entire label block is zero (as forced by the
    structured generator)."""
    shape = state.shape
    out = []
    for party in range(1, shape.n_parties + 1):
        rows = shape.labels_of_parties([party])
        if not state.coeff[rows, :].any():
            out.append(party)
    return tuple(out)
