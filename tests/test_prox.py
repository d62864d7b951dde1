"""Tests for the proximal-mapping library."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nspd import prox
from nspd.prox import (_soft, apg, conjugate_prox, elastic_net, l1_norm,
                       l1_shifted, point_indicator, project_simplex,
                       simplex_indicator, simplex_support,
                       squared_l2, zero)

RNG = np.random.default_rng(7)


def builtin_functions(dim=6):
    b = RNG.standard_normal(dim)
    return [
        l1_norm(dim, 0.3),
        l1_shifted(b),
        elastic_net(dim, 0.3, 0.7),
        point_indicator(b),
        simplex_indicator(dim),
        simplex_support(dim),
        squared_l2(dim, 1.3),
        zero(dim),
    ]


# a test id: the kind, with the scalar parameters builtin_functions() sets
_SCALARS = {"l1": "(lam=0.3)", "elastic": "(lam=0.3,mu=0.7)",
            "squared_l2": "(w=1.3)"}


def _id(h):
    return h.kind + _SCALARS.get(h.kind, "")


# -- Moreau round-trip -------------------------------------------------------

@pytest.mark.parametrize("h", builtin_functions(), ids=_id)
def test_moreau_roundtrip_100_pairs(h):
    rng = np.random.default_rng(123)
    for _ in range(100):
        x = rng.standard_normal(h.dim) * rng.choice([0.1, 1.0, 10.0])
        rho = float(rng.uniform(1e-2, 1e2))
        lhs = h.prox(x, 1.0 / rho) + conjugate_prox(h, rho * x, rho) / rho
        assert np.max(np.abs(lhs - x)) <= 1e-10


def _moreau_conjugate_prox(h, v, rho):
    return v - rho * h.prox(v / rho, 1.0 / rho)


@pytest.mark.parametrize("h", [h for h in builtin_functions() if h.conj_prox],
                         ids=_id)
def test_closed_form_conjugate_prox_matches_moreau(h):
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(h.dim) * rng.choice([0.1, 1.0, 10.0])
        rho = float(rng.uniform(1e-2, 1e2))
        moreau = _moreau_conjugate_prox(h, v, rho)
        assert np.max(np.abs(conjugate_prox(h, v, rho) - moreau)) <= 1e-12


def test_closed_forms_present_where_promised():
    with_closed_form = {h.kind for h in builtin_functions() if h.conj_prox}
    assert with_closed_form == {"l1", "l1_shifted", "point_indicator",
                                "simplex_support"}


def test_shift_is_the_anchor_of_a_shifted_function():
    b = np.array([1.0, -2.0])
    assert l1_shifted(b).shift is point_indicator(b).params["b"] is not None
    assert l1_norm(2, 0.05).shift is None


@pytest.mark.parametrize("h", builtin_functions(), ids=_id)
def test_replacing_the_prox_keeps_kind_params_name_and_shift(h):
    r = dataclasses.replace(h, prox=lambda v, step: h.prox(v, step))
    assert (r.kind, r.shift is h.shift) == (h.kind, True)
    assert r.params.keys() == h.params.keys()
    assert all(r.params[k] is h.params[k] for k in h.params)
    with pytest.raises(TypeError):
        r.params["lam"] = 1.0


def test_conj_prox_survives_replacing_the_prox():
    calls = []
    h = l1_shifted(np.array([0.5, -1.0, 2.0]))

    def counted(v, step, _prox=h.prox):
        calls.append(step)
        return _prox(v, step)

    wrapped = dataclasses.replace(h, prox=counted)
    v = np.array([3.0, -0.2, 0.1])
    assert wrapped.conj_prox is h.conj_prox
    assert np.array_equal(conjugate_prox(wrapped, v, 2.0),
                          conjugate_prox(h, v, 2.0))
    assert calls == []  # the closed form does not go through the prox


def test_soft_threshold_equals_sign_formula():
    rng = np.random.default_rng(17)
    for t in (0.0, 0.3, 2.5):
        v = rng.standard_normal(500) * 2
        v[:40] = t
        v[40:80] = -t
        v[80:100] = 0.0
        v[100:110] = -0.0
        with np.errstate(under="ignore"):  # t = 0: the least subnormal
            v[110:120] = np.nextafter(t, np.inf)
        v[120:130] = -np.nextafter(t, 0.0)
        old = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert np.array_equal(_soft(v, t), old)  # -0.0 == 0.0 here


# -- prox characterization against probe points ------------------------------

def feasible_probes(h, rng, count=50):
    """Probe points where value() is finite."""
    if h.kind == "point_indicator":
        return [h.prox(rng.standard_normal(h.dim), 1.0) for _ in range(count)]
    if h.kind == "simplex_indicator":
        return [rng.dirichlet(np.ones(h.dim)) for _ in range(count)]
    return [rng.standard_normal(h.dim) * 2 for _ in range(count)]


@pytest.mark.parametrize("h", builtin_functions(), ids=_id)
def test_prox_minimizes_objective(h):
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(h.dim)
        step = float(rng.uniform(0.1, 5.0))
        u = h.prox(v, step)
        fu = h.value(u) + np.sum((u - v) ** 2) / (2 * step)
        for w in feasible_probes(h, rng):
            fw = h.value(w) + np.sum((w - v) ** 2) / (2 * step)
            assert fw >= fu - 1e-9


@pytest.mark.parametrize("h", builtin_functions(), ids=_id)
def test_firm_nonexpansiveness(h):
    rng = np.random.default_rng(17)
    for _ in range(30):
        v1, v2 = rng.standard_normal(h.dim), rng.standard_normal(h.dim)
        s = float(rng.uniform(0.05, 20.0))
        d = np.linalg.norm(h.prox(v1, s) - h.prox(v2, s))
        assert d <= np.linalg.norm(v1 - v2) + 1e-10


def test_strong_convexity_midpoint():
    rng = np.random.default_rng(3)
    for h in (elastic_net(5, 0.2, 0.9), squared_l2(5, 2.0)):
        for _ in range(40):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            m = 0.5 * (x + y)

            def centered(v):
                return h.value(v) - 0.5 * h.mu * float(v @ v)

            assert centered(m) <= 0.5 * centered(x) + 0.5 * centered(y) + 1e-9


# -- closed-form examples -----------------------------------------------------

def test_conjugate_prox_self_conjugate_quadratic():
    h = squared_l2(3, 1.0)
    v = np.array([2.0, -4.0, 0.5])
    assert np.allclose(conjugate_prox(h, v, 1.0), v / 2)


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_conjugate_prox_refuses_a_non_positive_rho(rho):
    with pytest.raises(ValueError, match="rho must be positive"):
        conjugate_prox(squared_l2(3, 1.0), np.zeros(3), rho)


def test_conjugate_prox_l1_clamps():
    h = l1_norm(2, 1.0)
    out = conjugate_prox(h, np.array([2.0, -0.5]), 1.0)
    assert np.allclose(out, [1.0, -0.5])


def test_l1_soft_threshold_hand_value():
    h = l1_norm(2, 0.05)
    out = h.prox(np.array([1.2, -0.3]), 10.0)
    assert np.allclose(out, [0.7, 0.0])
    assert np.array_equal(h.prox(np.zeros(2), 3.0), np.zeros(2))


def test_l1_lipschitz_left_unset():
    assert l1_norm(4, 0.5).lipschitz is None


def test_l1_shifted_reduces_to_l1_at_zero_shift(rng):
    h0 = l1_shifted(np.zeros(4))
    h1 = l1_norm(4, 1.0)
    v = rng.standard_normal(4)
    assert np.allclose(h0.prox(v, 0.7), h1.prox(v, 0.7))


def test_l1_shifted_fixed_point_and_hand_value():
    b = np.array([1.0, 1.0])
    h = l1_shifted(b)
    assert np.allclose(h.prox(b, 13.0), b)
    assert np.allclose(h.prox(np.array([3.0, 1.0]), 1.0), [2.0, 1.0])
    assert h.lipschitz == pytest.approx(np.sqrt(2))


def test_elastic_hand_value_and_probe():
    h = elastic_net(2, 0.05, 0.1)
    out = h.prox(np.array([1.05, 0.0]), 1.0)
    assert np.allclose(out, [1.0 / 1.1, 0.0])
    assert np.array_equal(h.prox(np.zeros(2), 2.0), np.zeros(2))


def test_elastic_matches_l1_for_vanishing_mu(rng):
    v = rng.standard_normal(5)
    a = elastic_net(5, 0.3, 1e-9).prox(v, 1.2)
    b = l1_norm(5, 0.3).prox(v, 1.2)
    assert np.max(np.abs(a - b)) <= 1e-8


def test_elastic_is_l1_then_scale(rng):
    lam, mu = 0.4, 0.9
    h = elastic_net(6, lam, mu)
    l1 = l1_norm(6, lam)
    for _ in range(100):
        v = rng.standard_normal(6) * 3
        s = float(rng.uniform(0.01, 10))
        assert np.max(np.abs(h.prox(v, s) - l1.prox(v, s) / (1 + s * mu))) <= 1e-12


def test_point_indicator_prox_and_conjugate():
    b = np.array([1.0, 2.0])
    h = point_indicator(b)
    assert np.array_equal(h.prox(np.array([9.0, -9.0]), 0.3), b)
    assert np.allclose(conjugate_prox(h, np.array([5.0, 5.0]), 2.0), [3.0, 1.0])
    z = point_indicator(np.zeros(2))
    v = np.array([0.4, -0.2])
    assert np.allclose(conjugate_prox(z, v, 3.0), v)


def test_simplex_projection_cases():
    h = simplex_indicator(2)
    assert np.allclose(h.prox(np.array([0.5, 0.5]), 1.0), [0.5, 0.5])
    assert np.allclose(h.prox(np.array([2.0, 0.0]), 7.0), [1.0, 0.0])
    c = np.full(3, 1.0 / 3.0)
    assert np.allclose(simplex_indicator(3).prox(c, 1.0), c)


def test_simplex_projection_kkt_against_feasible_probes(rng):
    for _ in range(5):
        v = rng.standard_normal(10) * 2
        u = project_simplex(v)
        assert abs(u.sum() - 1.0) <= 1e-12
        assert u.min() >= 0.0
        probes = rng.dirichlet(np.ones(10), size=1000)
        # variational inequality <v - u, w - u> <= 0 for feasible w
        assert np.max((probes - u) @ (v - u)) <= 1e-9


def test_simplex_projection_of_large_and_non_finite_input():
    # from 2^52 the cumulative sum rounds the simplex's 1 away; the
    # projection shifts by max(v) instead, which leaves it unchanged
    for v, u in (([1e20, 0.0], [1.0, 0.0]),
                 ([1e20, 1e20, 0.0], [0.5, 0.5, 0.0]),
                 (1e17 + np.array([-208.0, -16.0, -32.0, -32.0, -48.0]),
                  [0.0, 1.0, 0.0, 0.0, 0.0])):
        assert project_simplex(np.array(v)).tolist() == u
    with np.errstate(invalid="ignore"):
        for bad in ([np.nan, 0.0, 1.0], [np.inf, 0.0], [-np.inf, -np.inf]):
            assert np.isnan(project_simplex(np.array(bad))).all()


def test_simplex_projection_grid_oracle():
    # dim=2 exhaustive check: parametrize the simplex by t in [0,1]
    v = np.array([2.0, 0.0])
    u = project_simplex(v)
    ts = np.linspace(0, 1, 2001)
    pts = np.stack([ts, 1 - ts], axis=1)
    d = np.sum((pts - v) ** 2, axis=1)
    assert np.sum((u - v) ** 2) <= d.min() + 1e-9


def test_apg_reaches_the_prox_of_a_quadratic(rng, monkeypatch):
    # min lam ||x||_1 + (1/2) ||x - c||^2 is the soft-threshold of c
    monkeypatch.setattr(prox, "APG_TOL", 1e-12)
    monkeypatch.setattr(prox, "APG_MAX_STEPS", 100)
    c = rng.standard_normal(6)
    h = l1_norm(6, 0.3)
    x = apg(h.prox, lambda x: x - c, 1.0, np.zeros(6), "test")
    assert np.allclose(x, _soft(c, 0.3), atol=1e-12)


def test_gradients_match_finite_differences(rng):
    h = squared_l2(5, 1.7)
    x = rng.standard_normal(5)
    g = h.gradient(x)
    for i in range(5):
        e = np.zeros(5)
        e[i] = 1e-6
        fd = (h.value(x + e) - h.value(x - e)) / 2e-6
        assert abs(fd - g[i]) <= 1e-5 * (1 + abs(g[i]))


# -- property-based checks -----------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1), st.floats(0.02, 50.0))
def test_simplex_support_moreau_identity(seed, rho):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(5) * 3
    h = simplex_support(5)
    lhs = h.prox(x, 1.0 / rho) + conjugate_prox(h, rho * x, rho) / rho
    assert np.max(np.abs(lhs - x)) <= 1e-10


@given(st.integers(0, 2 ** 32 - 1))
def test_simplex_support_conjugate_prox_is_projection(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6) * 2
    rho = float(rng.uniform(0.1, 10))
    h = simplex_support(6)
    assert np.max(np.abs(conjugate_prox(h, v, rho) - project_simplex(v))) <= 1e-12


def _fenchel_young(h, u, v):
    """h(u) + h*(v) - <u, v>, and the scale its rounding is relative to."""
    terms = (h.value(u), h.conjugate_value(v), float(u @ v))
    return terms[0] + terms[1] - terms[2], max(1.0, *map(abs, terms))


_CONJUGATES = [h for h in builtin_functions() if h.conjugate_value]
_DRAWS = (st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 1.0),
          st.floats(-2.0, 2.0))


# The examples put every term below 1 for some h (a long step for the
# shifted functions, a short one for simplex_support), so that a conjugate
# off by more than 1e-12 fails at scale 1.
@pytest.mark.parametrize("h", _CONJUGATES, ids=_id)
@example(seed=0, log_scale=-6.0, log_tau=2.0)
@example(seed=0, log_scale=-6.0, log_tau=-2.0)
@given(*_DRAWS)
def test_fenchel_young_equality_at_prox_pairs(h, seed, log_scale, log_tau):
    """u = prox_{tau h}(z) and v = (z - u)/tau has v in dh(u), where
    h(u) + h*(v) = <u, v>."""
    z = np.random.default_rng(seed).standard_normal(h.dim) * 10 ** log_scale
    tau = 10 ** log_tau
    u = h.prox(z, tau)
    gap, scale = _fenchel_young(h, u, (z - u) / tau)
    assert abs(gap) <= 1e-12 * scale


@pytest.mark.parametrize("h", _CONJUGATES, ids=_id)
@given(*_DRAWS)
def test_fenchel_young_inequality_at_random_pairs(h, seed, log_scale,
                                                  log_tau):
    """h(u) + h*(v) >= <u, v> for u in dom h and v in dom h*, drawn by the
    prox of h and of h*."""
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal((2, h.dim)) * 10 ** log_scale
    u = h.prox(z1, 10 ** log_tau)
    v = conjugate_prox(h, z2, float(rng.uniform(0.01, 100.0)))
    gap, scale = _fenchel_young(h, u, v)
    assert gap >= -1e-12 * scale


def test_indicator_values_use_feasibility_tolerance():
    h = simplex_indicator(3)
    x = project_simplex(np.array([0.3, 0.9, -0.4]))
    assert h.value(x) == 0.0
    assert h.value(x + 1e-3) == np.inf
    p = point_indicator(np.ones(2))
    assert p.value(np.ones(2)) == 0.0
    assert p.value(np.ones(2) + 1e-5) == np.inf


@pytest.mark.parametrize("n", [1, 7, 64, 200, 1000])
def test_values_equal_the_np_sum_formulas(n, rng):
    # the value and conjugate-value closures reduce with ndarray methods;
    # these are the np.sum/np.max forms they replaced, bit for bit
    lam, mu = 0.05, 0.1
    b = rng.standard_normal(n)
    l1, shifted, net = l1_norm(n, lam), l1_shifted(b), elastic_net(n, lam, mu)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        x = scale * rng.standard_normal(n)
        assert l1.value(x) == lam * float(np.sum(np.abs(x)))
        assert shifted.value(x) == float(np.sum(np.abs(x - b)))
        with np.errstate(over="ignore", under="ignore"):  # x @ x at 1e+-300
            assert net.value(x) == (lam * float(np.sum(np.abs(x)))
                                    + 0.5 * mu * float(x @ x))
        old_ball = 0.0 if np.max(np.abs(x)) <= lam * (1 + 1e-9) + 1e-9 else np.inf
        assert l1.conjugate_value(x) == old_ball
        old_box = float(b @ x) if np.max(np.abs(x)) <= 1 + 1e-9 else np.inf
        assert shifted.conjugate_value(x) == old_box
    x = np.full(n, lam)  # on the ball's boundary
    assert l1.conjugate_value(x) == 0.0
