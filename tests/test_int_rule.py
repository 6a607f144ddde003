"""One int rule (``errors.is_int``) for every count, index and dimension."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import crbcompress
from crbcompress import betalaw, fisher, mcharness, planner, randcomp, sigmodel
from crbcompress.errors import BadShape, BadSpec, DomainError

SRC = Path(crbcompress.__file__).resolve().parent


def _model():
    return sigmodel.UlaModel(sigmodel.two_source_half_rayleigh(16))


def _run(**changes):
    config = mcharness.ExperimentConfig(compressor=randcomp.CompressorSpec(m=6, n=16), trials=2,
                                        model=_model())
    return mcharness.run(dataclasses.replace(config, **changes))


def _information():
    model = _model()
    return fisher.fim(model.jacobian(model.reference_theta))


# argument, a valid int for it, the typed error a bool or float raises, the call
ARGUMENTS = [
    ("betalaw.crb_ratio_law n", 128, DomainError, lambda v: betalaw.crb_ratio_law(v, 64, 2)),
    ("betalaw.crb_ratio_law m", 64, DomainError, lambda v: betalaw.crb_ratio_law(128, v, 2)),
    ("betalaw.crb_ratio_law p", 1, DomainError, lambda v: betalaw.crb_ratio_law(128, 64, v)),
    ("betalaw.kl_ratio_law n", 32, DomainError, lambda v: betalaw.kl_ratio_law(v, 8)),
    ("betalaw.kl_ratio_law m", 1, DomainError, lambda v: betalaw.kl_ratio_law(32, v)),
    ("betalaw.MatrixBetaLaw p", 1, DomainError, lambda v: betalaw.MatrixBetaLaw(p=v, m=8, n=16)),
    ("betalaw.MatrixBetaLaw m", 8, DomainError, lambda v: betalaw.MatrixBetaLaw(p=2, m=v, n=16)),
    ("betalaw.MatrixBetaLaw n", 16, DomainError, lambda v: betalaw.MatrixBetaLaw(p=2, m=8, n=v)),
    ("betalaw.ln_cmv_gamma p", 1, DomainError, lambda v: betalaw.ln_cmv_gamma(v, 3.0)),
    ("betalaw.moments n", 16, DomainError, lambda v: betalaw.moments(v, 8, 2, np.eye(2), 0)),
    ("betalaw.moments m", 8, DomainError, lambda v: betalaw.moments(16, v, 2, np.eye(2), 0)),
    ("betalaw.moments p", 1, DomainError, lambda v: betalaw.moments(16, 8, v, np.eye(1), 0)),
    ("betalaw.moments i", 1, BadShape, lambda v: betalaw.moments(16, 8, 2, np.eye(2), v)),
    ("planner.PlanQuery n", 128, DomainError, lambda v: planner.PlanQuery(v, 2, 2.0, 0.9)),
    ("planner.PlanQuery p", 1, DomainError, lambda v: planner.PlanQuery(128, v, 2.0, 0.9)),
    ("planner.confidence_at n", 128, DomainError, lambda v: planner.confidence_at(v, 64, 2, 2.0)),
    ("planner.confidence_at m", 64, DomainError, lambda v: planner.confidence_at(128, v, 2, 2.0)),
    ("planner.confidence_at p", 1, DomainError, lambda v: planner.confidence_at(128, 64, v, 2.0)),
    ("planner.curve n", 64, DomainError, lambda v: planner.curve(v, 2, [2.0])),
    ("planner.curve p", 1, DomainError, lambda v: planner.curve(64, v, [2.0])),
    ("planner.ellipse_locus points", 8, DomainError, lambda v: planner.ellipse_locus(np.eye(2), 1.0, v)),
    ("fisher.crb i", 1, BadShape, lambda v: fisher.crb(_information(), v)),
    ("mcharness.histogram bins", 1, BadSpec, lambda v: mcharness.histogram(np.arange(4.0), v)),
    ("mcharness.ExperimentConfig trials", 1, BadSpec, lambda v: _run(trials=v)),
    ("mcharness.ExperimentConfig crb_index", 1, BadShape, lambda v: _run(crb_index=v)),
    ("mcharness.ExperimentConfig histogram_bins", 1, BadSpec, lambda v: _run(histogram_bins=v)),
    ("mcharness.ExperimentConfig threads", 1, BadSpec, lambda v: _run(threads=v)),
    ("mcharness.ExperimentConfig seed", 1, BadSpec, lambda v: _run(seed=v)),
    ("randcomp.CompressorSpec m", 1, BadSpec, lambda v: randcomp.CompressorSpec(m=v, n=16)),
    ("randcomp.CompressorSpec n", 16, BadSpec, lambda v: randcomp.CompressorSpec(m=6, n=v)),
    ("randcomp.CompressorSpec seed", 1, BadSpec, lambda v: randcomp.CompressorSpec(m=6, n=16, seed=v)),
    ("randcomp.check_key value", 1, BadSpec, lambda v: randcomp.check_key(v)),
    ("randcomp.derive_stream seed", 1, BadSpec, lambda v: randcomp.derive_stream(v, 0)),
    ("randcomp.derive_stream trial", 1, BadSpec, lambda v: randcomp.derive_stream(0, v)),
    ("sigmodel.UlaScenario n", 16, BadSpec,
     lambda v: sigmodel.UlaScenario(n=v, sources=(sigmodel.Source(0.0),))),
    ("sigmodel.two_source_half_rayleigh n", 16, BadSpec, lambda v: sigmodel.two_source_half_rayleigh(v)),
]


@pytest.mark.parametrize("name, valid, error, call", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_bools_and_floats_raise_the_typed_error(name, valid, error, call):
    call(valid)  # the int itself is accepted
    for value in (True, 1.0, float(valid)):
        with pytest.raises(error):
            call(value)


def _int_checks(tree: ast.AST):
    """Lines of the calls isinstance(x, int), the int rule spelled by hand."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Name) and node.args[1].id == "int"):
            yield node.lineno


def test_only_errors_spells_the_int_rule():
    # a tuple such as (int, np.integer) formats a value; it checks no input
    found = {path.name: list(_int_checks(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SRC.rglob("*.py"))}
    assert found.pop("errors.py"), "errors.is_int spells the rule"
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard sees a hand-spelled check and passes over the tuple form
    assert list(_int_checks(ast.parse("isinstance(n, int)\nisinstance(v, (int, np.integer))"))) == [1]
