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

Every spatial part is evaluated by one plane-wave evaluator,
grids.PlaneWaves.series, from the cos and sin of each wave sampled once
on the points at hand. sample_bank samples a whole scalar bank on a
grid at once, sharing each wave's cos and sin between the members, for
checks that evaluate the same test functions at many times.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, PlaneWaves

_MASK = (1 << 64) - 1


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


def _waves(coeffs):
    return {tuple(q[:-2]) for q in coeffs}


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
    waves = PlaneWaves(set().union(*(_waves(phi.coeffs) for phi in bank)),
                       *coords)
    return [phi.sampled(waves) for phi in bank]


@dataclass
class TestFunction1D:
    """phi(t, x) = env(t) * sum_k [c_k cos(2 pi k x) + s_k sin(2 pi k x)]."""

    coeffs: list  # triples (k, c_k, s_k)
    T: float
    scale: float = 1.0

    def spatial(self, x, d=None):
        """The spatial part at x, or with d = 0 its x-derivative."""
        waves = PlaneWaves(_waves(self.coeffs), x)
        return self.scale * waves.series(self.coeffs, d)

    def sampled(self, waves):
        return SampledTestFunction(
            self.T, self.scale * waves.series(self.coeffs),
            (self.scale * waves.series(self.coeffs, d=0),))

    def eval(self, t, x):
        return _envelope(t, self.T) * self.spatial(x)

    def dt(self, t, x):
        return _envelope_dt(t, self.T) * self.spatial(x)

    def dx(self, t, x):
        return _envelope(t, self.T) * self.spatial(x, d=0)

    def max_shear(self, oversample=2048):
        x = np.arange(oversample) / oversample
        return float(np.max(np.abs(self.spatial(x, d=0))))


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
        return PlaneWaves(_waves(self.coeffs1) | _waves(self.coeffs2), X, Y)

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

    def max_sym_grad(self, oversample=256):
        g = np.arange(oversample) / oversample
        X, Y = np.meshgrid(g, g, indexing="ij")
        D = self.spatial_sym_grad(X, Y)
        return float(np.max(np.sqrt(D[0] ** 2 + D[1] ** 2 + 2 * D[2] ** 2)))


@dataclass
class ScalarTestFunction2D:
    """phi(t, x) = env(t) * sum of plane waves; quadruples (kx, ky, c, s)."""

    coeffs: list
    T: float

    def sampled(self, waves):
        return SampledTestFunction(
            self.T, waves.series(self.coeffs),
            (waves.series(self.coeffs, d=0), waves.series(self.coeffs, d=1)))

    def _series(self, X, Y, d=None):
        return PlaneWaves(_waves(self.coeffs), X, Y).series(self.coeffs, d)

    def eval(self, t, X, Y):
        return _envelope(t, self.T) * self._series(X, Y)

    def dt(self, t, X, Y):
        return _envelope_dt(t, self.T) * self._series(X, Y)

    def grad(self, t, X, Y):
        e = _envelope(t, self.T)
        return e * self._series(X, Y, d=0), e * self._series(X, Y, d=1)


def scalar_bank_2d(seed, T, size=10, modes=2):
    """Seeded bank of scalar 2D space-time test functions."""
    rng = SplitMix64(seed)
    waves = [
        (kx, ky)
        for kx in range(0, modes + 1)
        for ky in range(-modes, modes + 1)
        if (kx, ky) > (0, 0)
    ]
    bank = []
    for _ in range(size):
        coeffs = [(kx, ky, rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for kx, ky in waves]
        bank.append(ScalarTestFunction2D(coeffs, T))
    return bank


def scalar_bank_1d(seed, T, size=10, modes=3):
    """Seeded bank of scalar space-time test functions (weak-form checks)."""
    rng = SplitMix64(seed)
    bank = []
    for _ in range(size):
        coeffs = [(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(1, modes + 1)]
        bank.append(TestFunction1D(coeffs, T))
    return bank


def velocity_bank_1d(seed, T, size=20, modes=3, margin=0.99):
    """Seeded bank rescaled so max |dv/dx| equals the constraint margin."""
    rng = SplitMix64(seed)
    bank = []
    for _ in range(size):
        coeffs = [(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(1, modes + 1)]
        v = TestFunction1D(coeffs, T)
        m = v.max_shear()
        v.scale = margin / m if m > 0 else 0.0
        bank.append(v)
    return bank


def velocity_bank_2d(seed, T, size=20, modes=2, margin=0.99):
    """Seeded 2D bank rescaled so max |Dv| equals the constraint margin."""
    rng = SplitMix64(seed)
    waves = [
        (kx, ky)
        for kx in range(0, modes + 1)
        for ky in range(-modes, modes + 1)
        if (kx, ky) > (0, 0)
    ]
    bank = []
    for _ in range(size):
        c1 = [(kx, ky, rng.uniform(-1, 1), rng.uniform(-1, 1)) for kx, ky in waves]
        c2 = [(kx, ky, rng.uniform(-1, 1), rng.uniform(-1, 1)) for kx, ky in waves]
        v = TestFunction2D(c1, c2, T)
        m = v.max_sym_grad()
        v.scale = margin / m if m > 0 else 0.0
        bank.append(v)
    return bank
