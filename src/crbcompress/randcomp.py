"""Samplers for random compression matrices.

Both families are right-orthogonally invariant, which is the only
property the loss laws need: the row-space projector of a draw is then
uniform over the Grassmannian.  ``stiefel`` orthonormalizes a
``gaussian`` draw, keeping its row space, for rows with Phi Phi^H = I.
Entries are drawn at unit variance; any other scale would leave the
row space, and so every statistic, unchanged.  For the same reason
``spherical_rows`` was removed: it gave each gaussian row's direction
an independent sqrt(chi^2_2n / 2) radius, which makes a CN(0, I_n) row
again, and row scaling leaves the row space as it was.

Streams are counter based: ``derive_stream(seed, trial)`` keys a Philox
generator with the pair, so any trial of any campaign can be regenerated
in isolation and in any order.  Seeds and trial indices are ints in
[0, 2^64), the Philox key range, so distinct pairs never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec

FAMILIES = ("gaussian", "stiefel")


def check_key(value, name: str = "seed") -> int:
    """``value`` if it is an int in [0, 2^64), else BadSpec."""
    if not (isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**64):
        raise BadSpec(f"{name} must be an int in [0, 2**64), got {value!r}")
    return value


@dataclass(frozen=True)
class CompressorSpec:
    """Shape, family, and seed of a compressor ensemble.

    ``m`` is the compressed dimension, ``n`` the ambient one.  The
    relation to the parameter count (p < m where the information is
    compressed) is checked at the experiment level, not here.
    """

    m: int
    n: int
    family: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise BadSpec(f"m and n must be ints, got {self.m!r}, {self.n!r}")
        if not 1 <= self.m <= self.n:
            raise BadSpec(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.family not in FAMILIES:
            raise BadSpec(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        check_key(self.seed)


def derive_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one (seed, trial) pair.

    Philox is keyed directly with the pair, so streams for distinct
    trials never collide and do not depend on generation order.
    """
    key = np.array([check_key(seed), check_key(trial, "trial index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_gaussian(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """i.i.d. CN(0, 1) entries."""
    scale = math.sqrt(0.5)
    return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _haar_row_frame(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    a = _complex_gaussian(rng, n, m)
    q, r = np.linalg.qr(a)
    # Phase correction makes the QR factor exactly Haar distributed.
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q.conj().T


def sample(spec: CompressorSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one m-by-n compressor from the ensemble ``spec``."""
    if spec.family == "gaussian":
        return _complex_gaussian(rng, spec.m, spec.n)
    if spec.family == "stiefel":
        return _haar_row_frame(rng, spec.m, spec.n)
    raise BadSpec(f"unknown family {spec.family!r}")
