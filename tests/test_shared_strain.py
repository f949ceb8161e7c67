"""The 2D momentum solve computes each iterate's strain Dv and
log(|Dv|^2 + delta^2) once: functional and functional_gradient share
them, and grad(a rho^gamma), through a memo dict that the solve owns and
passes in. With or without a memo, in either call order, each must
return the bits of its former stand-alone expression, kept here; the
batched preconditioner must return the bits of its one-field form."""

import numpy as np
import pytest

from thickflow.grids import Grid2D, ddx_2d, div_2d, sym_grad_2d
from thickflow.semistationary2d import (Stokes2DParams, _FourierPreconditioner,
                                        functional, functional_gradient,
                                        solve_momentum)

pytestmark = pytest.mark.filterwarnings("error")

G = Grid2D(16, 12)


def former_weight(D, p, delta):
    t = D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2 + delta * delta
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(0.5 * (p - 2.0) * np.log(np.maximum(t, 1e-320)))


def former_functional(v, rga, g, p, delta):
    D = sym_grad_2d(v, g)
    t = D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2 + delta * delta
    with np.errstate(divide="ignore", over="ignore"):
        dens = np.exp(0.5 * p * np.log(np.maximum(t, 1e-320))) / p
    return float(np.sum(dens - rga * div_2d(v, g)) * g.dx * g.dy)


def former_gradient(v, rga, g, p, delta):
    D = sym_grad_2d(v, g)
    W = former_weight(D, p, delta)
    s11, s22, s12 = W * D[0], W * D[1], W * D[2]
    g1 = -(ddx_2d(s11, g, axis=0) + ddx_2d(s12, g, axis=1)) \
        + ddx_2d(rga, g, axis=0)
    g2 = -(ddx_2d(s12, g, axis=0) + ddx_2d(s22, g, axis=1)) \
        + ddx_2d(rga, g, axis=1)
    return np.stack([g1, g2])


def former_apply(pc, r):
    """H0 r = s P1(s r), one field at a time, one component per FFT."""
    r1 = np.fft.rfft2(pc.s * r[0])
    r2 = np.fft.rfft2(pc.s * r[1])
    z1 = pc.i11 * r1 + pc.i12 * r2
    z2 = pc.i12 * r1 + pc.i22 * r2
    n = r[0].shape
    return pc.s * np.stack([np.fft.irfft2(z1, s=n), np.fft.irfft2(z2, s=n)])


def fields(seed, scale=0.05):
    """A velocity that is zero on half the grid (so Dv = 0 there, and
    t = delta^2, or the 1e-320 floor at delta = 0) and a density term."""
    rng = np.random.default_rng(seed)
    v = scale * rng.normal(size=(2, G.nx, G.ny))
    v[:, : G.nx // 2] = 0.0
    rga = 1.0 + 0.3 * rng.random((G.nx, G.ny))
    return v, rga


def assert_equal_to_former(v, rga, p, delta, memo, order):
    for name in order:
        if name == "functional":
            assert functional(v, rga, G, p, delta, memo) \
                == former_functional(v, rga, G, p, delta)
        else:
            assert np.array_equal(
                functional_gradient(v, rga, G, p, delta, memo),
                former_gradient(v, rga, G, p, delta))


CASES = [(2.0, 0.0), (2.0, 1e-8), (4.0, 1e-8), (8.0, 1e-8), (64.0, 1e-8)]
ORDERS = [("functional", "functional_gradient"),
          ("functional_gradient", "functional")]


@pytest.mark.parametrize("p, delta", CASES)
@pytest.mark.parametrize("order", ORDERS, ids="-".join)
@pytest.mark.parametrize("shared", [False, True], ids=["public", "memo"])
def test_shared_strain_keeps_every_bit(p, delta, order, shared):
    memo = {} if shared else None
    v, rga = fields(int(p))
    assert_equal_to_former(v, rga, p, delta, memo, order)
    # the same calls again: memo hits on both the strain and grad(rga)
    assert_equal_to_former(v, rga, p, delta, memo, order[::-1])
    # another iterate, the same rga; then the same values in a new array
    w = v + 0.01
    assert_equal_to_former(w, rga, p, delta, memo, order)
    assert_equal_to_former(w.copy(), rga.copy(), p, delta, memo, order)


def test_wild_iterate_at_p64_gives_inf_without_a_warning():
    v, rga = fields(64, scale=1e4)   # |Dv| ~ 1e5: (1e10)^32 overflows
    memo = {}
    for m in (None, memo, memo):
        J = functional(v, rga, G, 64.0, 1e-8, m)
        assert J == np.inf == former_functional(v, rga, G, 64.0, 1e-8)


def test_in_place_change_between_public_calls_is_seen():
    v, rga = fields(5)
    functional(v, rga, G, 8.0, 1e-8)
    functional_gradient(v, rga, G, 8.0, 1e-8)
    v[0, 10, 3] += 0.2
    rga *= 1.5
    assert_equal_to_former(v, rga, 8.0, 1e-8, None, ORDERS[1])
    assert_equal_to_former(v, rga, 8.0, 1e-8, None, ORDERS[0])


def test_solution_returned_in_place_has_no_stale_strain():
    # solve_momentum removes the flat modes from the array it returns,
    # after its last evaluation of the iterate
    g = Grid2D(16, 16)
    pr = Stokes2DParams(p=4.0, gamma=2.0)
    X, Y = g.meshgrid()
    rho = 1 + 0.3 * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * (X + Y))
    rga = pr.a * rho**pr.gamma
    u_init = 0.01 + 0.02 * np.stack([np.sin(2 * np.pi * Y),
                                     np.cos(2 * np.pi * X)])
    u = solve_momentum(rho, pr, g, u_init=u_init)
    got = functional_gradient(u, rga, g, pr.p, pr.delta)
    assert np.array_equal(got, functional_gradient(u.copy(), rga, g, pr.p,
                                                   pr.delta))
    assert np.array_equal(got, former_gradient(u, rga, g, pr.p, pr.delta))


@pytest.mark.parametrize("w", [1e-3, 0.7, 1e3])
def test_batched_preconditioner_keeps_every_bit(w):
    # a viscosity field about w, wider than the preconditioner's band
    rng = np.random.default_rng(9)
    pc = _FourierPreconditioner(G, w * np.exp(rng.normal(size=(G.nx, G.ny))))
    q, y = rng.normal(size=(2, 2, G.nx, G.ny))
    Pq, Py = pc.apply(np.stack([q, y]))
    assert np.array_equal(Pq, former_apply(pc, q))
    assert np.array_equal(Py, former_apply(pc, y))
    assert np.array_equal(pc.apply(q), former_apply(pc, q))
