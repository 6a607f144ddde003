"""The signal model: a line array's mean map x(theta) and its Jacobian.

``UlaModel`` is a uniform line array of ``n`` sensors observing ``p``
far-field sources with known amplitudes and phases; the unknown
parameters are the electrical angles, and the scenario's angles are the
reference point a campaign evaluates the Jacobian at.  The beta laws
hold for any Jacobian, so other models enter ``fisher`` as a plain
n-by-p matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, BadSpec, is_int, is_real, is_real_array


def _reduce_angle(theta: float) -> float:
    # IEEE remainder keeps the mean map 2*pi periodic whenever the
    # shifted angle is exactly representable.
    return math.remainder(float(theta), math.tau)


@dataclass(frozen=True)
class Source:
    """One far-field source: electrical angle, amplitude, phase."""

    theta: float
    amplitude: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class UlaScenario:
    """A uniform line array of ``n`` sensors observing fixed sources."""

    n: int
    sources: tuple[Source, ...]

    def __post_init__(self):
        _check_sensors(self.n)
        if len(self.sources) == 0:
            raise BadSpec("scenario needs at least one source")
        for s in self.sources:
            if not (is_real(s.theta) and is_real(s.amplitude) and is_real(s.phase)):
                raise BadSpec(f"source angle, amplitude and phase must be real numbers, got {s!r}")
            if not (s.amplitude > 0.0 and math.isfinite(s.amplitude)):
                raise BadSpec(f"source amplitude must be positive, got {s.amplitude}")
            if not (math.isfinite(s.theta) and math.isfinite(s.phase)):
                raise BadSpec("source angle and phase must be finite")

    @property
    def angles(self) -> np.ndarray:
        return np.array([s.theta for s in self.sources], dtype=np.float64)


def _check_sensors(n) -> None:
    if not (is_int(n) and n >= 2):
        raise BadSpec(f"array needs an int n >= 2 sensors, got n={n!r}")


def two_source_half_rayleigh(n: int) -> UlaScenario:
    """Two unit-amplitude, zero-phase sources at angles 0 and pi/n.

    The second source sits half a Rayleigh resolution cell (2*pi/n)
    away from the first, the classic hard case for a line array.  An n
    that is not an int >= 2 is a BadSpec, as for ``UlaScenario``.
    """
    _check_sensors(n)
    return UlaScenario(n=n, sources=(Source(0.0), Source(math.pi / n)))


def ula_mean(scenario: UlaScenario) -> np.ndarray:
    """Superposed array response sum_i A_i exp(j phi_i) exp(j k theta_i)."""
    k = np.arange(scenario.n)
    x = np.zeros(scenario.n, dtype=np.complex128)
    for s in scenario.sources:
        x += s.amplitude * np.exp(1j * (k * _reduce_angle(s.theta) + s.phase))
    return x


def ula_jacobian(scenario: UlaScenario) -> np.ndarray:
    """Derivative of the array response with respect to each angle.

    Column i is j*k * A_i exp(j phi_i) exp(j k theta_i), k = 0..n-1.
    """
    k = np.arange(scenario.n)
    g = np.empty((scenario.n, len(scenario.sources)), dtype=np.complex128)
    for i, s in enumerate(scenario.sources):
        g[:, i] = 1j * k * s.amplitude * np.exp(1j * (k * _reduce_angle(s.theta) + s.phase))
    return g


class UlaModel:
    """Line-array model with the angles as the unknown parameters.

    Amplitudes and phases are taken from the scenario and held fixed;
    the scenario angles double as the reference evaluation point.
    """

    def __init__(self, scenario: UlaScenario):
        self._scenario = scenario

    @property
    def scenario(self) -> UlaScenario:
        return self._scenario

    @property
    def n(self) -> int:
        return self._scenario.n

    @property
    def p(self) -> int:
        return len(self._scenario.sources)

    @property
    def reference_theta(self) -> np.ndarray:
        return self._scenario.angles

    def _at(self, theta) -> UlaScenario:
        """The scenario with its angles replaced by ``theta``."""
        # a complex theta is not made real, nor a bool, string or object one made a number
        if not is_real_array(theta):
            raise BadShape(f"theta must hold finite real numbers, got {theta!r}")
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if not np.isfinite(theta).all():
            raise BadShape(f"theta must hold finite real numbers, got {theta!r}")
        if theta.shape[0] != self.p:
            raise BadShape(f"theta must have {self.p} entries, got {theta.shape[0]}")
        sources = tuple(
            Source(float(t), s.amplitude, s.phase)
            for t, s in zip(theta, self._scenario.sources)
        )
        return UlaScenario(n=self.n, sources=sources)

    def mean(self, theta) -> np.ndarray:
        return ula_mean(self._at(theta))

    def jacobian(self, theta) -> np.ndarray:
        return ula_jacobian(self._at(theta))
