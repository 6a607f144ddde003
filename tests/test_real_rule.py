"""One real-number rule (``errors.is_real``) for every real parameter, and real points and samples."""

import numpy as np
import pytest

from crbcompress import betalaw, fisher, mcharness, planner, sigmodel
from crbcompress.errors import BadShape, BadSpec, DomainError, is_complex_array, is_real, is_real_array

G = np.eye(4, 2, dtype=complex)
J = np.array([[2.0, 0.5], [0.5, 1.0]])
LAW = betalaw.BetaLaw(3.0, 4.0)


def _scenario(**source):
    return sigmodel.UlaScenario(n=8, sources=(sigmodel.Source(**source),))


# argument, a valid real for it, the typed error a non-real raises, the call
ARGUMENTS = [
    ("fisher.fim sigma2", 1.0, BadShape, lambda v: fisher.fim(G, v)),
    ("fisher.compressed_fim sigma2", 1.0, BadShape, lambda v: fisher.compressed_fim(G, np.eye(3, 4), v)),
    ("fisher.kl_divergence sigma2", 1.0, BadShape, lambda v: fisher.kl_divergence(G[:, 0], G[:, 1], v)),
    ("betalaw.BetaLaw a", 2.0, DomainError, lambda v: betalaw.BetaLaw(v, 2.0)),
    ("betalaw.BetaLaw b", 2.0, DomainError, lambda v: betalaw.BetaLaw(2.0, v)),
    ("planner.PlanQuery kappa", 2.0, DomainError, lambda v: planner.PlanQuery(100, 2, v, 0.9)),
    ("planner.PlanQuery confidence", 0.9, DomainError, lambda v: planner.PlanQuery(100, 2, 2.0, v)),
    ("planner.confidence_at kappa", 2.0, DomainError, lambda v: planner.confidence_at(128, 64, 2, v)),
    ("planner.ellipse_locus r2", 1.0, DomainError, lambda v: planner.ellipse_locus(J, v)),
    ("sigmodel.Source theta", 0.5, BadSpec, lambda v: _scenario(theta=v)),
    ("sigmodel.Source amplitude", 2.0, BadSpec, lambda v: _scenario(theta=0.0, amplitude=v)),
    ("sigmodel.Source phase", 0.5, BadSpec, lambda v: _scenario(theta=0.0, phase=v)),
]


@pytest.mark.parametrize("name, valid, error, call", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_non_real_parameters_raise_the_typed_error(name, valid, error, call):
    call(valid)  # the float itself is accepted
    call(np.float64(valid))
    for value in (True, str(valid), complex(valid), np.array([valid, valid])):
        with pytest.raises(error):
            call(value)


# a law function or a sample reducer, the typed error for a complex point, the call
POINTS = [
    ("betalaw.beta_cdf", DomainError, lambda x: betalaw.beta_cdf(LAW, x)),
    ("betalaw.beta_sf", DomainError, lambda x: betalaw.beta_sf(LAW, x)),
    ("betalaw.beta_pdf", DomainError, lambda x: betalaw.beta_pdf(LAW, x)),
    ("betalaw.beta_quantile", DomainError, lambda x: betalaw.beta_quantile(LAW, x)),
    ("mcharness.histogram", BadShape, lambda x: mcharness.histogram(np.resize(x, 200))),
    ("mcharness.ks_one_sample", BadShape,
     lambda x: mcharness.ks_one_sample(np.resize(x, 200), lambda s: betalaw.beta_cdf(LAW, s))),
    # a one-source array, so the point is its one angle
    ("sigmodel.UlaModel.mean", BadShape, lambda x: sigmodel.UlaModel(_scenario(theta=0.0)).mean(x)),
    ("sigmodel.UlaModel.jacobian", BadShape, lambda x: sigmodel.UlaModel(_scenario(theta=0.0)).jacobian(x)),
]


@pytest.mark.parametrize("name, error, call", POINTS, ids=[p[0] for p in POINTS])
def test_complex_points_are_not_made_real(name, error, call):
    # numpy used to drop the imaginary part with only a ComplexWarning, so
    # beta_cdf(Beta(3, 4), [0.3 + 0.5j]) returned I_0.3(3, 4)
    call(0.3)
    call(np.array([0.3]))
    for value in (0.3 + 0.5j, np.complex128(0.3 + 0.5j), np.array([0.3 + 0.5j]), np.array([0.3 + 0j])):
        with pytest.raises(error):
            call(value)


def test_scalar_points_keep_the_scalar_kernel():
    # an int, a numpy float and a 0-d array are real points of the scalar path
    x = betalaw.beta_cdf(LAW, 0.0)
    assert betalaw.beta_cdf(LAW, 0) == x and betalaw.beta_cdf(LAW, np.array(0.0)) == x
    assert isinstance(betalaw.beta_cdf(LAW, np.float64(0.3)), float)
    with pytest.raises(DomainError):
        betalaw.beta_cdf(LAW, True)
    # the scalar-only beta_tails_pdf shares the rule
    assert betalaw.beta_tails_pdf(LAW, 0.3)[0] == betalaw.beta_cdf(LAW, 0.3)
    with pytest.raises(DomainError):
        betalaw.beta_tails_pdf(LAW, 0.3 + 0.5j)
    with pytest.raises(DomainError, match="scalar"):
        betalaw.beta_tails_pdf(LAW, np.array([0.3]))


def test_a_bool_inside_a_list_is_not_made_a_number():
    # np.asarray promotes [True, 0.3] to [1.0, 0.3], so the rule reads a list or tuple before it does
    model = sigmodel.UlaModel(sigmodel.two_source_half_rayleigh(8))
    samples = [0.3] * 199
    for error, call in (
        (BadShape, lambda: model.mean([True, 1])),
        (BadShape, lambda: model.jacobian((1.0, False))),
        (DomainError, lambda: betalaw.beta_cdf(LAW, [True, 0.3])),
        (DomainError, lambda: betalaw.beta_cdf(LAW, [[0.2], [True]])),
        (DomainError, lambda: betalaw.beta_quantile(LAW, (0.5, np.bool_(True)))),
        (BadShape, lambda: mcharness.histogram(samples + [True])),
        (BadShape, lambda: mcharness.ks_one_sample(samples + [True], lambda s: betalaw.beta_cdf(LAW, s))),
    ):
        with pytest.raises(error):
            call()
    # ints and floats mixed in a list stay numbers
    np.testing.assert_array_equal(model.mean([1, 0.5]), model.mean(np.array([1.0, 0.5])))
    np.testing.assert_array_equal(betalaw.beta_cdf(LAW, [[0.2], [1]]), betalaw.beta_cdf(LAW, np.array([[0.2], [1.0]])))


def test_the_rules():
    assert all(is_real(v) for v in (1, 1.5, np.float32(1.5), np.int64(3), -np.inf))
    assert not any(is_real(v) for v in (True, np.bool_(True), 1j, "1", None, np.array(1.0), [1.0]))
    assert all(is_real_array(np.asarray(v)) for v in ([1, 2], [1.5], 0.5, np.arange(3, dtype=np.uint8)))
    assert not any(is_real_array(np.asarray(v)) for v in ([True], [1j], ["1"], [1.0, None]))
    # a list or tuple is read before numpy promotes it
    assert all(is_real_array(v) for v in ([1, 2.5], (np.float32(1.5), 2), [[0.2], [1]], [np.arange(2), [1, 2]], []))
    assert not any(is_real_array(v) for v in ([True, 1], [[0.2], [True]], (0.5, np.bool_(False)), [1, 1j], [0.5, "1"]))


def test_plan_grids_take_the_real_rule():
    # curve used to float() each entry first, so a grid of "3" planned kappa = 3
    # and [True, 2.0] was refused as "kappa 1.0"
    for kappas, confidences in (
        (["3"], [0.9]),
        ([3.0], ["0.9"]),
        ([True, 2.0], [0.9]),
        ([1 + 2j], [0.9]),
        (["x"], [0.9]),
        (2.0, [0.9]),
        ([[2.0]], [0.9]),
        (np.array([[2.0, 3.0]]), [0.9]),
    ):
        with pytest.raises(DomainError, match="grid"):
            planner.curve(128, 2, kappas, confidences)
    # ints and numpy arrays of reals still plan, with float kappa and confidence in the rows
    rows = planner.curve(128, 2, np.array([3]), (np.float64(0.9),))
    assert rows == planner.curve(128, 2, [3.0], [0.9])
    assert type(rows[0].kappa) is float and type(rows[0].confidence) is float


def test_eigenvalue_points_take_the_real_rule():
    law = betalaw.MatrixBetaLaw(p=2, m=4, n=8)
    for lams in (["0.3", "0.5"], [True, 0.5], [0.3 + 0j, 0.5], np.array([0.3 + 0.7j, 0.5])):
        with pytest.raises(BadShape):
            betalaw.eig_joint_logpdf(lams, law)
    assert betalaw.eig_joint_logpdf([0.3, 1], law) == betalaw.eig_joint_logpdf(np.array([0.3, 1.0]), law)


def test_complex_array_arguments_refuse_bools_strings_and_objects():
    law = betalaw.MatrixBetaLaw(p=2, m=4, n=8)
    for call in (
        lambda: fisher.fim([["1", "0"], ["0", "1"], ["1", "1"]]),
        lambda: fisher.fim([[True, False], [False, True], [True, True]]),
        lambda: fisher.fim(np.array([[True, False], [False, True], [True, True]])),
        lambda: fisher.fim(np.array([[1, 0], [0, 1], [1, "1"]], dtype=object)),
        lambda: fisher.compressed_fim(G, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, np.bool_(True), 0]]),
        lambda: fisher.kl_divergence(["1", "2"], ["0", "0"]),
        lambda: fisher.kl_divergence(np.array([1.0, 2.0]), (0, False)),
        lambda: betalaw.matrix_beta_logpdf([["0.5", "0"], ["0", "0.5"]], law),
    ):
        with pytest.raises(BadShape):
            call()
    # ints, floats and complex numbers, in lists or arrays, are still numbers
    np.testing.assert_array_equal(fisher.fim([[1, 0], [0, 1j], [1.0, 1]]).J,
                                  fisher.fim(np.array([[1, 0], [0, 1j], [1, 1]])).J)
    assert fisher.kl_divergence([1, 2j], (0, 0.0)) == fisher.kl_divergence(np.array([1, 2j]), np.zeros(2))


def test_the_complex_array_rule():
    assert all(is_complex_array(v) for v in (
        np.eye(2), np.arange(3), np.array([1j]), [1, 2.5, 1j], (np.complex64(1j), np.int8(2)), [[1j], [2]], [], 0.5,
    ))
    assert not any(is_complex_array(v) for v in (
        np.array([True]), np.array(["1"]), np.array([1, None]), [True, 1], [[1j], [False]], (1, np.bool_(True)),
        ["1"], [1, None], "1", None,
    ))
