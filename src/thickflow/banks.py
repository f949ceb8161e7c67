"""Seeded test-function banks for weak-form and variational checks.

All randomness in the package derives from a single config seed through
SplitMix64, a 64-bit mixing generator defined by its update constants

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

so the banks are bit-identical across implementations of the same spec.

A test function is a truncated spatial Fourier series times a
polynomial-in-time envelope env(t) = 16 (t/T)^2 (1 - t/T)^2 that
vanishes (with its first derivative) at t = 0 and t = T and peaks at 1.
Velocity-type test fields are the same objects rescaled so the shear
constraint holds with margin: max |dv/dx| = 0.99 in 1D, max |Dv| = 0.99
in 2D (maxima taken over a dense sample grid and the envelope peak).
check_bank is the one rule for the bank a check draws from a config.

A scalar test function, in 1D and in 2D, is one grids.FourierSeries, and
every spatial part is evaluated by grids.PlaneWaves.series. sample_bank
samples a whole scalar bank on a grid at once, sharing each wave's cos
and sin between the members, for checks that evaluate the same test
functions at many times.
"""

from dataclasses import dataclass

import numpy as np

from .grids import (FourierSeries, Grid1D, PlaneWaves, dense_extrema,
                    sym_grad_norm)

_MASK = (1 << 64) - 1

# the weak-form checks draw at most this many scalar members
WEAK_FORM_SIZE = 10
# the 2D velocity bank's modes, whatever bank_modes; C11 relies on them
VELOCITY_2D_MODES = 2


class SplitMix64:
    """Deterministic 64-bit generator; uniform() yields floats in [0, 1)."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * (self.next_u64() / 2.0**64)


def _envelope(t, T):
    s = np.asarray(t) / T
    return 16.0 * s**2 * (1.0 - s) ** 2


def _envelope_dt(t, T):
    s = np.asarray(t) / T
    return 16.0 * (2.0 * s * (1.0 - s) ** 2 - 2.0 * s**2 * (1.0 - s)) / T


@dataclass
class SampledTestFunction:
    """A scalar test function with its spatial part sampled on a grid.

    S is the spatial part, grad_S its derivatives (one per axis); the time
    enters only through the envelope.
    """

    T: float
    S: np.ndarray
    grad_S: tuple

    def eval(self, t):
        return _envelope(t, self.T) * self.S

    def dt(self, t):
        return _envelope_dt(t, self.T) * self.S

    def grad(self, t):
        e = _envelope(t, self.T)
        return [e * d for d in self.grad_S]


def sample_bank(bank, grid):
    """Each scalar test function of bank sampled on grid.

    The cos and sin of each plane wave are evaluated once for the bank.
    """
    coords = (grid.x,) if isinstance(grid, Grid1D) else grid.meshgrid()
    waves = PlaneWaves(set().union(*(phi.waves() for phi in bank)), *coords)
    return [phi.sampled(waves) for phi in bank]


class TestFunction(FourierSeries):
    """phi(t, x) = env(t) * S(x), S the FourierSeries of coeffs and scale."""

    def __init__(self, coeffs, T):
        super().__init__(coeffs)
        self.T = T

    def sampled(self, waves):
        """Sampled from waves, a PlaneWaves of its waves()."""
        S = super().sampled
        grad_S = tuple(S(waves, d) for d in range(len(waves.shape)))
        return SampledTestFunction(self.T, S(waves), grad_S)

    def eval(self, t, *coords):
        return _envelope(t, self.T) * self.spatial(*coords)

    def dt(self, t, *coords):
        return _envelope_dt(t, self.T) * self.spatial(*coords)

    def grad(self, t, *coords):
        e = _envelope(t, self.T)
        return [e * self.spatial(*coords, d=d) for d in range(len(coords))]

    def dx(self, t, x):
        return _envelope(t, self.T) * self.spatial(x, d=0)

    def max_shear(self):
        """max |dS/dx| of a 1D function on a dense sample of 2048 points."""
        return dense_extrema(lambda x: np.abs(self.spatial(x, d=0)),
                             [2048])[1]


@dataclass
class TestFunction2D:
    """Vector field with plane-wave components and the same time envelope.

    Each component holds quadruples (kx, ky, c, s) meaning
    c cos(2 pi (kx x + ky y)) + s sin(2 pi (kx x + ky y)).
    """

    coeffs1: list
    coeffs2: list
    T: float
    scale: float = 1.0

    def _plane_waves(self, X, Y):
        waves = {tuple(q[:-2]) for q in self.coeffs1 + self.coeffs2}
        return PlaneWaves(waves, X, Y)

    def spatial(self, X, Y):
        waves = self._plane_waves(X, Y)
        return np.stack([self.scale * waves.series(self.coeffs1),
                         self.scale * waves.series(self.coeffs2)])

    def spatial_sym_grad(self, X, Y):
        waves = self._plane_waves(X, Y)
        d11 = self.scale * waves.series(self.coeffs1, d=0)
        d22 = self.scale * waves.series(self.coeffs2, d=1)
        d12 = 0.5 * self.scale * (waves.series(self.coeffs1, d=1)
                                  + waves.series(self.coeffs2, d=0))
        return np.stack([d11, d22, d12])

    def eval(self, t, X, Y):
        return _envelope(t, self.T) * self.spatial(X, Y)

    def div(self, t, X, Y):
        waves = self._plane_waves(X, Y)
        d11 = waves.series(self.coeffs1, d=0)
        d22 = waves.series(self.coeffs2, d=1)
        return _envelope(t, self.T) * self.scale * (d11 + d22)

    def max_sym_grad(self):
        """max |DS| of the spatial part on a dense 256 x 256 sample grid."""
        return dense_extrema(
            lambda X, Y: sym_grad_norm(self.spatial_sym_grad(X, Y)),
            [256, 256])[1]


def _draw(seed, size, waves, parts=1):
    """parts coefficient lists for each of size members, seeded: a list
    holds (*wave, c, s) for each wave, c drawn before s."""
    rng = SplitMix64(seed)
    return [[[(*w, rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in waves]
             for _ in range(parts)] for _ in range(size)]


def _waves(modes, ndim=1):
    """The waves of a bank: k = 1..modes, or one of each 2D pair +-(kx, ky)."""
    if ndim == 1:
        return [(k,) for k in range(1, modes + 1)]
    return [(kx, ky) for kx in range(0, modes + 1)
            for ky in range(-modes, modes + 1) if (kx, ky) > (0, 0)]


def scalar_bank_2d(seed, T, size, modes):
    """Seeded bank of scalar 2D space-time test functions."""
    return [TestFunction(c, T) for c, in _draw(seed, size, _waves(modes, 2))]


def scalar_bank_1d(seed, T, size, modes):
    """Seeded bank of scalar space-time test functions (weak-form checks)."""
    return [TestFunction(c, T) for c, in _draw(seed, size, _waves(modes))]


def _rescaled(bank, max_grad):
    """bank, each member scaled so that max_grad of it is the constraint
    margin 0.99."""
    for v in bank:
        m = max_grad(v)
        v.scale = 0.99 / m if m > 0 else 0.0
    return bank


def velocity_bank_1d(seed, T, size, modes):
    """The draw of scalar_bank_1d, rescaled so max |dv/dx| equals the
    constraint margin."""
    return _rescaled([TestFunction(c, T)
                      for c, in _draw(seed, size, _waves(modes))],
                     TestFunction.max_shear)


def velocity_bank_2d(seed, T, size):
    """Seeded 2D bank on VELOCITY_2D_MODES modes, rescaled so max |Dv|
    equals the constraint margin."""
    return _rescaled([TestFunction2D(c1, c2, T) for c1, c2 in _draw(
        seed, size, _waves(VELOCITY_2D_MODES, 2), parts=2)],
        TestFunction2D.max_sym_grad)


def check_bank(cfg, kind, ndim):
    """The bank of kind "scalar" (weak-form checks) or "velocity"
    (variational inequality) in ndim = 1 or 2 that the checks of cfg's
    runs draw. The makers are looked up when called, so that wrappers set
    on this module after import (perfbench's tracer) draw."""
    if kind == "scalar":
        maker = scalar_bank_1d if ndim == 1 else scalar_bank_2d
        return maker(cfg.seed, cfg.T, min(cfg.bank_size, WEAK_FORM_SIZE),
                     cfg.bank_modes)
    if ndim == 1:
        return velocity_bank_1d(cfg.seed, cfg.T, cfg.bank_size,
                                cfg.bank_modes)
    return velocity_bank_2d(cfg.seed, cfg.T, cfg.bank_size)
