"""Compressor ensembles: determinism, moments, rank, and invariance."""

import numpy as np
import pytest
import scipy.stats

from crbcompress.cxla import orthonormal_columns
from crbcompress.errors import BadSpec
from crbcompress.randcomp import FAMILIES, CompressorSpec, derive_stream, sample


def test_spec_validation():
    with pytest.raises(BadSpec):
        CompressorSpec(m=9, n=8)
    with pytest.raises(BadSpec):
        CompressorSpec(m=0, n=8)
    for family in ("fourier", "spherical_rows"):
        with pytest.raises(BadSpec):
            CompressorSpec(m=4, n=8, family=family)
    with pytest.raises(BadSpec):
        CompressorSpec(m=4, n=8, seed=1.5)
    with pytest.raises(BadSpec):
        CompressorSpec(m=4, n=8, seed=2**64)
    with pytest.raises(BadSpec):
        CompressorSpec(m=4.0, n=8)


@pytest.mark.parametrize("m, n", [(True, 16), (1, True), (False, 8)])
def test_spec_rejects_bool_dimensions(m, n):
    # bool is an int to Python, and m=True used to be accepted as m=1
    with pytest.raises(BadSpec, match="m and n must be ints"):
        CompressorSpec(m=m, n=n)


def test_stream_determinism_and_order_independence():
    spec = CompressorSpec(m=3, n=7, family="gaussian", seed=123)
    a = sample(spec, derive_stream(123, 5))
    b = sample(spec, derive_stream(123, 5))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample(spec, derive_stream(123, 6)))
    assert not np.array_equal(a, sample(spec, derive_stream(124, 5)))
    # drawing trials out of order cannot change anything
    shuffled = {t: sample(spec, derive_stream(123, t)) for t in (4, 1, 3, 0, 2)}
    for t in range(5):
        np.testing.assert_array_equal(shuffled[t], sample(spec, derive_stream(123, t)))
    with pytest.raises(BadSpec):
        derive_stream(0, -1)


def test_stream_keys_outside_the_philox_range_are_rejected():
    # reduced modulo 2**64, these keys drew the streams of (0, 0) and (1, 0)
    for seed, trial in ((2**64, 0), (-(2**64) + 1, 0), (0, 2**64), (1.5, 0), (1, 0.0), (True, 0)):
        with pytest.raises(BadSpec):
            derive_stream(seed, trial)
    assert derive_stream(2**64 - 1, 2**64 - 1).standard_normal() != derive_stream(0, 0).standard_normal()


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("m, n", [(64, 128), (16, 32)])
def test_gaussian_draw_is_bit_identical_to_the_scaled_sum(seed, m, n):
    # real parts then imaginary parts, each scaled by sqrt(1/2): the same
    # bits as the expression with its complex temporaries
    spec = CompressorSpec(m=m, n=n, family="gaussian", seed=seed)
    rng = derive_stream(seed, 7)
    old = np.sqrt(0.5) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    new = sample(spec, derive_stream(seed, 7))
    assert new.dtype == np.complex128 and new.shape == (m, n)
    assert new.tobytes() == old.tobytes()


def test_gaussian_entry_moments():
    spec = CompressorSpec(m=200, n=500, family="gaussian", seed=77)
    phi = sample(spec, derive_stream(77, 0))
    assert phi.shape == (200, 500)
    # the bounds at entry variance 3, rescaled to unit variance
    assert abs(np.mean(phi.real)) < 0.0115
    assert abs(np.mean(phi.imag)) < 0.0115
    # unit power per entry, split evenly between the two real parts
    assert abs(np.mean(np.abs(phi) ** 2) - 1.0) < 0.0133
    assert abs(np.var(phi.real) - 0.5) < 0.01
    assert abs(np.var(phi.imag) - 0.5) < 0.01


def test_stiefel_rows_orthonormal():
    spec = CompressorSpec(m=5, n=12, family="stiefel", seed=8)
    for trial in range(20):
        phi = sample(spec, derive_stream(8, trial))
        np.testing.assert_allclose(phi @ phi.conj().T, np.eye(5), atol=1e-12)
    square = sample(CompressorSpec(m=6, n=6, family="stiefel", seed=8), derive_stream(8, 0))
    np.testing.assert_allclose(square.conj().T @ square, np.eye(6), atol=1e-12)


def test_scale_does_not_move_the_row_space():
    # why the samplers need no entry scale: scaling a draw leaves its
    # row-space projector, and with it every statistic, unchanged
    for family in FAMILIES:
        phi = sample(CompressorSpec(m=4, n=10, family=family, seed=9), derive_stream(9, 0))
        q = orthonormal_columns(phi.conj().T)
        for scale in (1.0 / 64, 8.0):
            q_scaled = orthonormal_columns(scale * phi.conj().T)
            np.testing.assert_allclose(q_scaled @ q_scaled.conj().T, q @ q.conj().T, atol=1e-14)


def _min_singular_values(family: str, draws: int, m: int = 8, n: int = 32) -> np.ndarray:
    spec = CompressorSpec(m=m, n=n, family=family, seed=51)
    out = np.empty(draws)
    chunk = 500
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        stack = np.stack([sample(spec, derive_stream(51, t)) for t in range(start, stop)])
        out[start:stop] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return out


def test_every_draw_has_full_row_rank():
    smallest = _min_singular_values("gaussian", 100_000)
    assert smallest.min() > 1e-8
    assert _min_singular_values("stiefel", 5000).min() > 1e-8


def test_right_rotation_invariance():
    # the law of u^H P u, P the row-space projector, must not depend on
    # the direction u; compare a basis vector against a rotated one
    rng = np.random.default_rng(99)
    n, m, draws = 24, 6, 3000
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u_rot = orthonormal_columns(z)[:, 0]

    def projector_energy(direction, trial_offset, family):
        spec = CompressorSpec(m=m, n=n, family=family, seed=61)
        vals = np.empty(draws)
        for t in range(draws):
            phi = sample(spec, derive_stream(61, trial_offset + t))
            q = orthonormal_columns(phi.conj().T)
            vals[t] = np.sum(np.abs(q.conj().T @ direction) ** 2)
        return vals

    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    for family in FAMILIES:
        a = projector_energy(e1, 0, family)
        b = projector_energy(u_rot, draws, family)
        assert np.all((a > -1e-12) & (a < 1.0 + 1e-12))
        result = scipy.stats.ks_2samp(a, b)
        assert result.pvalue > 0.005, f"{family}: p={result.pvalue}"
