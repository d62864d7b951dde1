"""Tests for the problem containers' refusals."""

import dataclasses

import numpy as np
import pytest

from nspd import prox
from nspd.errors import ConfigurationError
from nspd.linop import LinearMap
from nspd.problems import (CompositeProblem, EqConstrainedProblem,
                           SemiStrongProblem, neg_identity)

K = LinearMap.from_dense(np.ones((3, 2)))  # 3 rows, 2 columns


@pytest.mark.parametrize("make, message", [
    (lambda: CompositeProblem(prox.l1_norm(3, 1.0), prox.l1_norm(3, 1.0), K),
     "f has dim 3 but K has 2 columns"),
    (lambda: CompositeProblem(prox.l1_norm(2, 1.0), prox.l1_norm(2, 1.0), K),
     "g has dim 2 but K has 3 rows"),
    (lambda: EqConstrainedProblem(prox.l1_norm(2, 1.0), prox.l1_norm(2, 1.0),
                                  K, np.zeros(3)),
     "psi must provide a gradient"),
    (lambda: EqConstrainedProblem(
        prox.l1_norm(2, 1.0), dataclasses.replace(
            prox.squared_l2(2, 1.0), smooth_lipschitz=None), K, np.zeros(3)),
     "psi must provide smooth_lipschitz"),
    (lambda: EqConstrainedProblem(prox.l1_norm(3, 1.0),
                                  prox.squared_l2(3, 1.0), K, np.zeros(3)),
     "disagree on the primal dimension"),
    (lambda: EqConstrainedProblem(prox.l1_norm(2, 1.0),
                                  prox.squared_l2(2, 1.0), K, np.zeros(2)),
     "one entry per row of K"),
    (lambda: SemiStrongProblem(prox.l1_norm(2, 1.0), prox.l1_norm(3, 1.0), K,
                               neg_identity(3), np.zeros(3)),
     "strongly convex"),
    (lambda: SemiStrongProblem(prox.squared_l2(2, 1.0), prox.l1_norm(2, 1.0),
                               K, neg_identity(2), np.zeros(3)),
     "disagree on the constraint dimension"),
    (lambda: SemiStrongProblem(prox.squared_l2(2, 1.0), prox.l1_norm(2, 1.0),
                               K, neg_identity(3), np.zeros(3)),
     "psi and B disagree on the w dimension")],
    ids=["f_dim", "g_dim", "psi_gradient", "psi_smooth_lipschitz",
         "eq_primal_dim", "eq_b_shape", "semistrong_mu", "semistrong_rows",
         "semistrong_w_dim"])
def test_problem_refuses_an_inconsistent_container(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()
