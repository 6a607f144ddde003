"""Line-array mean map and analytic Jacobian."""

import math

import numpy as np
import pytest
from oracles import finite_diff_jacobian

from crbcompress.errors import BadShape, BadSpec
from crbcompress.sigmodel import (
    Source,
    UlaModel,
    UlaScenario,
    two_source_half_rayleigh,
    ula_jacobian,
    ula_mean,
)


def test_mean_single_source_zero_angle():
    scen = UlaScenario(n=4, sources=(Source(0.0),))
    np.testing.assert_array_equal(ula_mean(scen), np.ones(4, dtype=complex))


def test_mean_first_element_is_amplitude_sum():
    scen = two_source_half_rayleigh(128)
    x = ula_mean(scen)
    assert x.shape == (128,)
    assert x[0] == 2.0 + 0.0j


def test_mean_superposition():
    a = UlaScenario(n=10, sources=(Source(0.3, 1.5, 0.2),))
    b = UlaScenario(n=10, sources=(Source(-0.9, 0.7, -1.1),))
    both = UlaScenario(n=10, sources=a.sources + b.sources)
    np.testing.assert_allclose(ula_mean(both), ula_mean(a) + ula_mean(b), atol=0.0)


def test_mean_periodicity_exact_for_representable_shifts():
    tau = 2.0 * math.pi
    for theta in (0.0, 0.25, -0.5):
        base = UlaScenario(n=64, sources=(Source(theta),))
        shifted = UlaScenario(n=64, sources=(Source(theta + tau),))
        np.testing.assert_array_equal(ula_mean(base), ula_mean(shifted))
        np.testing.assert_array_equal(ula_jacobian(base), ula_jacobian(shifted))


def test_mean_periodicity_generic_angle():
    tau = 2.0 * math.pi
    base = UlaScenario(n=64, sources=(Source(0.7310987),))
    shifted = UlaScenario(n=64, sources=(Source(0.7310987 + tau),))
    assert np.max(np.abs(ula_mean(base) - ula_mean(shifted))) < 1e-12


def test_jacobian_column_norm_closed_form():
    # |column|^2 = A^2 * sum_k k^2 = A^2 * (n-1) n (2n-1) / 6
    n = 16
    scen = UlaScenario(n=n, sources=(Source(0.4, 1.5, 0.3), Source(-1.2)))
    g = ula_jacobian(scen)
    expected0 = 1.5**2 * (n - 1) * n * (2 * n - 1) / 6
    expected1 = (n - 1) * n * (2 * n - 1) / 6
    np.testing.assert_allclose(np.sum(np.abs(g[:, 0]) ** 2), expected0, rtol=1e-13)
    np.testing.assert_allclose(np.sum(np.abs(g[:, 1]) ** 2), expected1, rtol=1e-13)


def test_jacobian_matches_finite_differences():
    scen = UlaScenario(n=8, sources=(Source(0.3, 1.0, 0.2), Source(-1.1, 2.0, -0.4)))
    model = UlaModel(scen)
    g = model.jacobian(model.reference_theta)
    g_fd = finite_diff_jacobian(model, model.reference_theta)
    rel = np.linalg.norm(g - g_fd) / np.linalg.norm(g)
    assert rel < 1e-8


def test_finite_differences_second_order():
    scen = UlaScenario(n=8, sources=(Source(0.3), Source(-1.1)))
    model = UlaModel(scen)
    g = model.jacobian(model.reference_theta)
    err_h = np.linalg.norm(finite_diff_jacobian(model, model.reference_theta, h=1e-3) - g)
    err_h2 = np.linalg.norm(finite_diff_jacobian(model, model.reference_theta, h=5e-4) - g)
    # central differences: halving the step divides the error by about 4
    assert 3.0 < err_h / err_h2 < 5.0


def test_ula_model_substitutes_angles():
    scen = two_source_half_rayleigh(32)
    model = UlaModel(scen)
    assert model.n == 32 and model.p == 2
    np.testing.assert_array_equal(model.mean(model.reference_theta), ula_mean(scen))
    np.testing.assert_array_equal(model.jacobian(model.reference_theta), ula_jacobian(scen))
    moved = UlaScenario(n=32, sources=(Source(0.5), Source(1.0)))
    np.testing.assert_array_equal(model.mean([0.5, 1.0]), ula_mean(moved))


def test_scenario_validation():
    with pytest.raises(BadSpec):
        UlaScenario(n=1, sources=(Source(0.0),))
    with pytest.raises(BadSpec):
        UlaScenario(n=8, sources=())
    with pytest.raises(BadSpec):
        UlaScenario(n=8, sources=(Source(0.0, amplitude=0.0),))
    with pytest.raises(BadSpec):
        UlaScenario(n=8, sources=(Source(math.nan),))


def test_theta_validation():
    model = UlaModel(two_source_half_rayleigh(16))
    with pytest.raises(BadShape):
        model.mean([0.1, 0.2, 0.3])
    with pytest.raises(BadShape):
        model.mean([0.1, math.nan])
    with pytest.raises(BadShape):
        model.jacobian([0.1])
    with pytest.raises(BadSpec):
        finite_diff_jacobian(model, [0.0, 0.1], h=0.0)


@pytest.mark.parametrize("theta", [
    [True, False], np.array([True, False]), ["0.1", "0.2"], np.array(["0.1", "0.2"]),
    np.array([0.1, 0.2], dtype=object), [0.1 + 0.5j, 0.2], np.array([0.1 + 0j, 0.2 + 0j]),
])
def test_theta_must_hold_real_numbers(theta):
    # each used to be cast to float64: a complex part dropped with only a
    # ComplexWarning, a bool read as 0 or 1, a numeric string parsed
    model = UlaModel(two_source_half_rayleigh(16))
    for evaluate in (model.mean, model.jacobian):
        with pytest.raises(BadShape, match="real"):
            evaluate(theta)
    model.mean(np.array([1, 2]))  # ints are real angles


@pytest.mark.parametrize("n", [0, 1, -3, True, 16.0, "16", None])
def test_half_rayleigh_checks_n_before_dividing_by_it(n):
    # 0 used to raise ZeroDivisionError and a str or None TypeError
    with pytest.raises(BadSpec, match="array needs an int n >= 2 sensors") as error:
        two_source_half_rayleigh(n)
    with pytest.raises(BadSpec) as scenario_error:
        UlaScenario(n=n, sources=(Source(0.0),))
    assert str(error.value) == str(scenario_error.value)
