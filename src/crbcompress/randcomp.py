"""Samplers for random compression matrices.

Both families are right-orthogonally invariant, which is the only
property the loss laws need: the row-space projector of a draw is then
uniform over the Grassmannian.  ``stiefel`` draws its own n x m
gaussian array and returns the conjugate transpose of its
phase-corrected QR factor, rows with Phi Phi^H = I.  That array is not
the ``gaussian`` family's draw, so for one (seed, trial) the two
families' draws have different row spaces; only their laws agree.
Entries are drawn at unit variance; any other scale would leave the
row space, and so every statistic, unchanged.

Streams are counter based: ``derive_stream(seed, trial)`` keys a Philox
generator with the pair, so any trial of any campaign can be regenerated
in isolation and in any order.  Seeds and trial indices are ints in
[0, 2^64), the Philox key range, so distinct pairs never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, is_int

FAMILIES = ("gaussian", "stiefel")


def check_key(value, name: str = "seed") -> int:
    """``value`` if it is an int in [0, 2^64), else BadSpec."""
    if not (is_int(value) and 0 <= value < 2**64):
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
        if not (is_int(self.m) and is_int(self.n)):
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
    """i.i.d. CN(0, 1) entries: the real parts drawn first, then the imaginary parts.

    Each scaled draw is written straight into its half of one complex
    array, so the result is sqrt(1/2) * (a + 1j * b) bit for bit with no
    complex temporaries.
    """
    scale = math.sqrt(0.5)
    z = np.empty((m, n), dtype=np.complex128)
    np.multiply(rng.standard_normal((m, n)), scale, out=z.real)
    np.multiply(rng.standard_normal((m, n)), scale, out=z.imag)
    return z


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
