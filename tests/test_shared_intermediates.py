"""The 1D models' flux, dflux and potential share their intermediates
(s^2 + delta^2 and its log for the power law, 1 - s^2 and its root for
the barrier flux) through a one-entry memo. Whatever order they are
called in, each must return the bits of its former stand-alone
expression, and raise where that did."""

import itertools

import numpy as np
import pytest

from test_powerlaw1d import former_flux, former_flux_derivative

from thickflow.errors import ConstraintViolation, FluxOverflow
from thickflow.grids import Grid1D
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.singular1d import SingularModel, SingularParams

pytestmark = pytest.mark.filterwarnings("error")

G = Grid1D(16)
ORDERS = list(itertools.permutations(["flux", "dflux", "potential"]))


def former_powerlaw_potential(s, params):
    t = s * s + params.delta * params.delta
    with np.errstate(divide="ignore", over="ignore"):
        return params.mu / params.p * np.exp(
            0.5 * params.p * np.log(np.maximum(t, 1e-320)))


def former_singular_flux(s, eps):
    return eps * s / np.sqrt(1.0 - s * s)


def former_singular_flux_derivative(s, eps):
    return eps * (1.0 - s * s) ** -1.5


def former_singular_potential(s, eps):
    t = 1.0 - s * s
    out = np.full_like(s, np.inf)
    inside = t > 0
    out[inside] = -eps * np.sqrt(t[inside])
    return out


def powerlaw_case(params):
    model = PowerLawModel(params, G)
    return model, {
        "flux": lambda s: former_flux(s, params),
        "dflux": lambda s: former_flux_derivative(s, params),
        "potential": lambda s: former_powerlaw_potential(s, params)}


def singular_case(eps):
    model = SingularModel(SingularParams(eps=eps), G)
    return model, {
        "flux": lambda s: former_singular_flux(s, eps),
        "dflux": lambda s: former_singular_flux_derivative(s, eps),
        "potential": lambda s: former_singular_potential(s, eps)}


def assert_calls_equal(model, former, s, order):
    for name in order:
        assert np.array_equal(getattr(model, name)(s), former[name](s),
                              equal_nan=True), name


# values at the edges of the kernels: zero, tiny, subnormal, O(1)
EDGES = [0.0, -0.0, 1e-300, -1e-300, 1e-160, 5e-324, -2.5e-320, 1e-310,
         0.3, -1.2, 1.0]


# delta = 1e-170 squares to 0, so t vanishes with it as with delta = 0
@pytest.mark.parametrize("p, mu, delta", [
    (2.0, 1.0, 0.0), (2.0, 0.7, 1e-170), (4.0, 1.3, 1e-8),
    (64.0, 1.0, 1e-8), (8.0, 2.0, 1e-3)])
@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_powerlaw_memo_keeps_every_bit(p, mu, delta, order):
    pr = PowerLawParams(p=p, mu=mu, delta=delta)
    model, former = powerlaw_case(pr)
    rng = np.random.default_rng(int(p) + int(delta > 0))
    s = np.concatenate([rng.normal(scale=0.6, size=64), EDGES])
    assert_calls_equal(model, former, s, order)
    # each call again, now all on a memo hit
    assert_calls_equal(model, former, s, order)
    # other values (t is even in s, so not -s), then the values of s in
    # another array: both misses
    assert_calls_equal(model, former, 0.5 * s, order)
    assert_calls_equal(model, former, s.copy(), order[::-1])


@pytest.mark.parametrize("eps", [1e-3, 0.5])
@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_singular_memo_keeps_every_bit(eps, order):
    model, former = singular_case(eps)
    rng = np.random.default_rng(3)
    s = np.concatenate([rng.uniform(-0.999, 0.999, size=64),
                        [0.0, -0.0, 1e-300, 5e-324, 0.999999999, -0.5]])
    assert_calls_equal(model, former, s, order)
    assert_calls_equal(model, former, s, order)
    assert_calls_equal(model, former, 0.5 * s, order)
    assert_calls_equal(model, former, s.copy(), order[::-1])


@pytest.mark.parametrize("first", ["flux", "dflux", "potential"])
def test_powerlaw_overflow_raised_on_a_memo_hit(first):
    pr = PowerLawParams(p=64.0)
    model, former = powerlaw_case(pr)
    s = np.linspace(-1.0, 1.0, 33)
    s[5] = 1e5    # 63 (1e5)^62 > 1e300
    pot = former["potential"](s)
    assert pot[5] == np.inf
    if first == "potential":
        assert np.array_equal(model.potential(s), pot)
    else:
        with pytest.raises(FluxOverflow):
            getattr(model, first)(s)
    for name in ("flux", "dflux", "flux"):
        with pytest.raises(FluxOverflow):
            getattr(model, name)(s)
    assert np.array_equal(model.potential(s), pot)
    fine = np.linspace(-1.0, 1.0, 33)
    assert_calls_equal(model, former, fine, ["potential", "dflux", "flux"])


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, np.nan])
def test_singular_barrier_raised_on_a_memo_hit(bad):
    model, former = singular_case(0.01)
    s = np.linspace(-0.9, 0.9, 17)
    s[3] = bad
    s[8] = 1.2 if np.isnan(bad) else 0.0   # a nan must not hide it
    pot = model.potential(s)
    assert np.array_equal(pot, former["potential"](s))
    assert pot[3] == np.inf and np.isfinite(np.delete(pot, [3, 8])).all()
    for _ in range(2):
        with pytest.raises(ConstraintViolation, match="barrier"):
            model.flux(s)
        with pytest.raises(ConstraintViolation, match="barrier"):
            model.dflux(s)


def test_a_memoized_shear_cannot_change_in_place():
    # the memo is keyed by identity: a write into s after flux(s) would
    # make flux(s) return the stale flux and raise no FluxOverflow
    model = PowerLawModel(PowerLawParams(p=64.0), Grid1D(256))
    s = np.linspace(-1.0, 1.0, 256)
    f = model.flux(s)
    with pytest.raises(ValueError, match="read-only"):
        s[100] = 1e5
    assert np.array_equal(model.flux(s), f)
    s = s.copy()
    s[100] = 1e5
    with pytest.raises(FluxOverflow):
        model.flux(s)


def test_singular_nan_shear_is_not_a_barrier_hit():
    # as before the memo: a nan compares false, so it flows through
    model, former = singular_case(0.01)
    s = np.array([0.1, np.nan, -0.2])
    assert_calls_equal(model, former, s, ["potential", "flux", "dflux"])
