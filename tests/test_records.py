"""The record types: read-only fields, value equality, checked construction.

Two loaded CMF tables compare by identity; test_colorimetry checks that.
"""

import pickle

import numpy as np
import pytest

from lumenkit import (
    Chromaticity,
    DomainError,
    EfficacyResult,
    Flat,
    IsoPerGrid,
    LpSolution,
    PhotopicAnalytic,
    Planck,
    PlanckSweep,
    Sampled,
    SampledSpectrum,
    Tabulated,
    Tristimulus,
)

WL = np.array([400.0, 450.0, 500.0, 550.0])


@pytest.mark.parametrize("record, field", [
    (Chromaticity(0.3, 0.3), "x"),
    (Tristimulus(1.0, 2.0, 3.0), "Y"),
    (Planck(3000.0), "t_k"),
    (Flat(400.0, 700.0), "lam_max_nm"),
    (LpSolution(status="infeasible", objective_value=None, support=()), "status"),
    (SampledSpectrum(WL, np.ones(4)), "values"),
])
def test_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert getattr(record, field) is before


def test_value_records_compare_and_hash_by_value():
    assert Chromaticity(0.3, 0.3) == Chromaticity(0.3, 0.3)
    assert Chromaticity(0.3, 0.3) != Chromaticity(0.3, 0.4)
    assert hash(Chromaticity(0.3, 0.3)) == hash(Chromaticity(0.3, 0.3))
    assert len({Planck(3000.0), Planck(3000.0), Planck(4000.0)}) == 2
    assert PhotopicAnalytic() == PhotopicAnalytic()
    assert EfficacyResult(per=1.0, efficiency=2.0) != (1.0, 2.0)
    # Same fields, other type: not equal.
    assert Flat(400.0, 700.0) != SampledSpectrum(WL, np.ones(4))


def test_records_print_their_fields():
    assert repr(Chromaticity(0.25, 0.5)) == "Chromaticity(x=0.25, y=0.5)"
    assert repr(Tristimulus(1.0, 2.0, 3.0)) == "Tristimulus(X=1.0, Y=2.0, Z=3.0)"
    assert repr(PhotopicAnalytic()) == "PhotopicAnalytic()"


def test_keyword_construction():
    solution = LpSolution(status="optimal", objective_value=300.0, support=((555.0, 1.0),))
    assert (solution.status, solution.objective_value, solution.support) == \
        ("optimal", 300.0, ((555.0, 1.0),))
    sweep = PlanckSweep(rows=((1000.0, 1.0),), peak_t_k=1000.0, peak_per=1.0)
    assert sweep.peak_per == 1.0
    assert IsoPerGrid(grid_step=0.05, rows=()).grid_step == 0.05
    assert Flat(lam_max_nm=700.0, lam_min_nm=400.0) == Flat(400.0, 700.0)
    with pytest.raises(TypeError):
        Chromaticity(0.3)


# test_model_validation and test_chromaticity_rejects_non_finite check the
# spectrum models and non-finite chromaticities.
@pytest.mark.parametrize("make", [
    lambda: Chromaticity(-0.1, 0.3),
    lambda: Tristimulus(1.0, -1.0, 1.0),
    lambda: Tabulated(WL, np.array([0.5, 1.5, 0.5, 0.5])),
    lambda: Tabulated(WL[::-1], np.full(4, 0.5)),
])
def test_checks_raise_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_cached_property_and_pickle_survive():
    grid = SampledSpectrum(WL, np.array([1.0, 2.0, 2.0, 1.0]))
    assert grid.spline is grid.spline
    source = Sampled(grid)
    copy = pickle.loads(pickle.dumps(source))
    assert copy.grid.values.tolist() == [1.0, 2.0, 2.0, 1.0]
    assert Chromaticity(0.3, 0.3) == pickle.loads(pickle.dumps(Chromaticity(0.3, 0.3)))
