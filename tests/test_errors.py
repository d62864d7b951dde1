"""Tests for the shared exception types and the finiteness check."""

import pickle

import numpy as np
import pytest

from nspd.errors import DivergenceError, InnerSolverError, check_finite


@pytest.mark.parametrize("quantity", ["x", None])
def test_divergence_error_pickles(quantity):
    err = DivergenceError("non-finite iterate", 3, quantity)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergenceError
    assert (back.message, back.iteration, back.quantity) == (
        "non-finite iterate", 3, quantity)
    assert str(back) == str(err)


def test_inner_solver_error_pickles():
    err = InnerSolverError("APG did not converge", 1.5e-3)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is InnerSolverError
    assert (back.message, back.residual) == ("APG did not converge", 1.5e-3)
    assert str(back) == str(err)


def _vectors():
    rng = np.random.default_rng(2)
    return {"x": rng.standard_normal(64), "y": rng.standard_normal(200),
            "y_tilde": rng.standard_normal(200)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x", "y", "y_tilde"])
def test_check_finite_names_the_bad_vector(name, bad):
    vecs = _vectors()
    vecs[name][7] = bad
    with pytest.raises(DivergenceError) as err:
        check_finite(12, **vecs)
    assert err.value.iteration == 12
    assert err.value.quantity == name


def test_check_finite_names_the_first_of_several():
    vecs = _vectors()
    vecs["y"][0] = np.nan
    vecs["y_tilde"][0] = np.inf
    with pytest.raises(DivergenceError) as err:
        check_finite(0, **vecs)
    assert err.value.quantity == "y"


def test_check_finite_accepts_entries_whose_squares_overflow():
    vecs = _vectors()
    vecs["x"][:] = 1e200
    vecs["y"][3] = -1e200
    with np.errstate(over="ignore"):  # the squares overflow to inf
        check_finite(0, **vecs)  # no raise
        vecs["y_tilde"][5] = np.nan
        with pytest.raises(DivergenceError) as err:
            check_finite(0, **vecs)
    assert err.value.quantity == "y_tilde"
