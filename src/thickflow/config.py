"""Line-based config format: [section] headers, key = value, # comments.

The dialect is deliberately minimal and self-contained so configs are
bit-exactly specifiable: values are scalars, booleans, or flat
comma-separated lists. Initial data is parameterized as truncated
Fourier series; 1D fields use flat triples (k, cos_amp, sin_amp) and 2D
fields flat quadruples (kx, ky, cos_amp, sin_amp) for plane waves
cos(2 pi (kx x + ky y)) etc., which keeps runs reproducible across
implementations.

Validation collects every error (not just the first): positivity of
the implied initial density is checked by dense sampling at 8x grid
resolution, and |du0/dx| <= 1 is enforced when paper_initial_conditions
is set.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError, ValidationError
from .grids import Grid1D, Grid2D, PlaneWaves
from .powerlaw1d import PowerLawModel, PowerLawParams
from .semistationary2d import Stokes2DParams
from .singular1d import SingularModel, SingularParams

# model name -> (params class, 1D model class); the 2D solver has no 1D model
MODELS = {
    "powerlaw1d": (PowerLawParams, PowerLawModel),
    "singular1d": (SingularParams, SingularModel),
    "semistationary2d": (Stokes2DParams, None),
}

_SECTIONS = ("model", "grid", "params", "initial", "time", "sweep",
             "checks", "output")

_PARAM_KEYS = {"p", "mu", "a", "gamma", "delta", "eps", "cfl",
               "newton_tol", "newton_max_iter", "theta"}

DEFAULTS = {
    "params": {"p": 8.0, "mu": 1.0, "a": 1.0, "gamma": 2.0, "delta": 1e-8,
               "eps": 1e-2, "cfl": 0.4, "newton_tol": None,
               "newton_max_iter": None, "theta": 0.95},
    "initial": {"rho_mean": 1.0, "u_mean": 0.0,
                "paper_initial_conditions": False, "seed": 1},
    "time": {"snapshots": 32},
    "checks": {"tol_c": 5.0, "eta": [0.01, 0.05, 0.1],
               "energy_tol": 1e-6, "bank_size": 20, "bank_modes": 3,
               "s_list": []},
}


def _parse_scalar(text):
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        if any(c in t for c in ".eE") and not t.lstrip("+-").isdigit():
            return float(t)
        return int(t)
    except ValueError:
        try:
            return float(t)
        except ValueError:
            return t


def _parse_value(text):
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",") if p.strip()]
    return _parse_scalar(text)


def parse_raw(text):
    """Parse the INI dialect into {section: {key: value}}; syntax errors
    raise ParseError with line numbers."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"line {lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        current[key] = _parse_value(val)
    return sections


@dataclass
class FourierField:
    """mean + sum of plane waves: modes are (k, cos, sin) triples in 1D and
    (kx, ky, cos, sin) quadruples in 2D; the mean is the leading zero wave."""

    mean: float = 1.0
    modes: list = field(default_factory=list)

    def _series(self, coords, d=None):
        # one wave at a time: validation samples 2D fields on 512 x 512
        # points, where holding every wave's cos and sin at once would
        # raise the peak memory of a 2D run
        coeffs = [(0,) * len(coords) + (self.mean, 0.0), *self.modes]
        return sum(PlaneWaves([q[:-2]], *coords).series([q], d)
                   for q in coeffs)

    def eval(self, *coords):
        return self._series(coords)

    def eval_dx(self, x):
        return self._series((x,), d=0)


def _triples(flat, where, errors):
    if flat is None:
        return []
    if isinstance(flat, (int, float)):
        flat = [flat]
    if len(flat) % 3:
        errors.append(f"{where}: expected flat (k, cos, sin) triples")
        return []
    return [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]


def _quads(flat, where, errors):
    if flat is None:
        return []
    if isinstance(flat, (int, float)):
        flat = [flat]
    if len(flat) % 4:
        errors.append(f"{where}: expected flat (kx, ky, cos, sin) quadruples")
        return []
    return [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]


@dataclass
class Config:
    model: str
    n: int = 0
    nx: int = 0
    ny: int = 0
    params: dict = field(default_factory=dict)
    rho0: object = None
    u0: object = None          # 1D only
    paper_initial_conditions: bool = False
    seed: int = 1
    T: float = 0.0
    snapshots: int = 32
    snapshot_times: list = field(default_factory=list)
    sweep_kind: str = ""
    sweep_values: list = field(default_factory=list)
    sweep_eps_values: list = field(default_factory=list)
    sweep_eps_n: int = 0
    tol_c: float = 5.0
    eta: list = field(default_factory=lambda: [0.01, 0.05, 0.1])
    s_list: list = field(default_factory=list)
    energy_tol: float = 1e-6
    bank_size: int = 20
    bank_modes: int = 3
    output_dir: str = ""
    raw_text: str = ""

    @property
    def is_2d(self):
        return self.model == "semistationary2d"

    def grid(self):
        return Grid2D(self.nx, self.ny) if self.is_2d else Grid1D(self.n)

    def snapshot_schedule(self):
        """Configured output times: explicit list, or the uniform
        midpoint grid (k + 1/2) T / snapshots."""
        if self.snapshot_times:
            return list(self.snapshot_times)
        n = self.snapshots
        return [(k + 0.5) * self.T / n for k in range(n)]

    def build_params(self, model=None, **overrides):
        cls = MODELS[model or self.model][0]
        src = dict(self.params, **overrides)
        return cls(**{f.name: src[f.name] for f in fields(cls)
                      if src.get(f.name) is not None})

    def initial_fields(self, g):
        if self.is_2d:
            X, Y = g.meshgrid()
            return self.rho0.eval(X, Y), None
        x = g.x
        return self.rho0.eval(x), self.u0.eval(x)

    def initial_density_range(self, oversample=8):
        """(c1, c2) of the analytic initial density, dense sampling."""
        if self.is_2d:
            m = oversample * max(self.nx, self.ny)
            gx = np.arange(m) / m
            X, Y = np.meshgrid(gx, gx, indexing="ij", copy=False)
            vals = self.rho0.eval(X, Y)
        else:
            m = oversample * self.n
            vals = self.rho0.eval(np.arange(m) / m)
        return float(np.min(vals)), float(np.max(vals))

    def initial_shear_max(self, oversample=8):
        if self.is_2d or self.u0 is None:
            return 0.0
        m = oversample * self.n
        return float(np.max(np.abs(self.u0.eval_dx(np.arange(m) / m))))


def parse_config(text):
    """Parse and validate; returns Config or raises ParseError /
    ValidationError (the latter lists all problems at once)."""
    raw = parse_raw(text)
    errors = []

    model = raw.get("model", {}).get("kind")
    if model not in MODELS:
        errors.append(f"model.kind: expected powerlaw1d | singular1d | "
                      f"semistationary2d, got {model!r}")
        raise ValidationError(errors)

    cfg = Config(model=model, raw_text=text)
    gsec = raw.get("grid", {})
    if cfg.is_2d:
        cfg.nx = int(gsec.get("nx", gsec.get("n", 0)))
        cfg.ny = int(gsec.get("ny", cfg.nx))
        if cfg.nx < 8 or cfg.ny < 8:
            errors.append("grid.nx/ny: need at least 8 cells")
    else:
        cfg.n = int(gsec.get("n", 0))
        if cfg.n < 8:
            errors.append("grid.n: need at least 8 cells")

    psec = dict(DEFAULTS["params"])
    for k, v in raw.get("params", {}).items():
        if k not in _PARAM_KEYS:
            errors.append(f"params.{k}: unknown parameter")
        else:
            psec[k] = v
    cfg.params = psec
    if psec["gamma"] is not None and psec["gamma"] <= 1:
        errors.append("params.gamma: gamma must exceed 1")
    if psec["p"] is not None and model != "singular1d" and psec["p"] < 2:
        errors.append("params.p: exponent must be >= 2")
    if psec["eps"] is not None and model == "singular1d" and psec["eps"] <= 0:
        errors.append("params.eps: viscosity scale must be positive")
    if not 0 < psec["cfl"] <= 1:
        errors.append("params.cfl: must lie in (0, 1]")

    isec = dict(DEFAULTS["initial"])
    isec.update(raw.get("initial", {}))
    cfg.paper_initial_conditions = bool(isec["paper_initial_conditions"])
    cfg.seed = int(isec["seed"])
    if cfg.is_2d:
        cfg.rho0 = FourierField(float(isec.get("rho_mean", 1.0)),
                                _quads(isec.get("rho_modes"),
                                       "initial.rho_modes", errors))
    else:
        cfg.rho0 = FourierField(float(isec.get("rho_mean", 1.0)),
                                _triples(isec.get("rho_modes"),
                                         "initial.rho_modes", errors))
        cfg.u0 = FourierField(float(isec.get("u_mean", 0.0)),
                              _triples(isec.get("u_modes"),
                                       "initial.u_modes", errors))

    tsec = raw.get("time", {})
    cfg.T = float(tsec.get("T", 0.0))
    if cfg.T < 0:
        errors.append("time.T: final time must be >= 0")
    cfg.snapshots = int(tsec.get("snapshots", DEFAULTS["time"]["snapshots"]))
    st = tsec.get("snapshot_times", [])
    cfg.snapshot_times = list(st) if isinstance(st, list) else [st]

    ssec = raw.get("sweep", {})
    cfg.sweep_kind = ssec.get("kind", "")
    vals = ssec.get("values", [])
    cfg.sweep_values = list(vals) if isinstance(vals, list) else [vals]
    ev = ssec.get("eps_values", [])
    cfg.sweep_eps_values = list(ev) if isinstance(ev, list) else [ev]
    cfg.sweep_eps_n = int(ssec.get("eps_n", 0))
    if cfg.sweep_kind and cfg.sweep_kind not in ("p", "eps", "cross"):
        errors.append(f"sweep.kind: expected p | eps | cross, got "
                      f"{cfg.sweep_kind!r}")
    for key, vals in (("values", cfg.sweep_values),
                      ("eps_values", cfg.sweep_eps_values)):
        labels = [f"{v:g}" for v in vals if isinstance(v, (int, float))]
        if len(set(labels)) < len(labels):
            errors.append(f"sweep.{key}: two of {vals} would share one member "
                          "directory (members are named with %g)")
    if cfg.sweep_kind == "cross":
        if not cfg.sweep_values:
            errors.append("sweep.values: kind = cross needs p values")
        if cfg.n and cfg.sweep_eps_n % cfg.n:
            errors.append(
                f"sweep.eps_n: {cfg.sweep_eps_n} is not a multiple of grid.n "
                f"= {cfg.n}; the cross-model distance needs nested grids")
    if cfg.sweep_kind in ("eps", "cross"):
        eps_key = "eps_values" if cfg.sweep_kind == "cross" else "values"
        eps_list = cfg.sweep_eps_values if cfg.sweep_kind == "cross" \
            else cfg.sweep_values
        if not eps_list:
            errors.append(f"sweep.{eps_key}: kind = {cfg.sweep_kind} needs "
                          "eps values")
        n_eps = cfg.sweep_eps_n or cfg.n
        if eps_list and n_eps and min(eps_list) < 10.0 / n_eps:
            errors.append(
                f"sweep: eps_min = {min(eps_list)} under-resolves the "
                f"constraint layer; need eps >= 10 dx = {10.0 / n_eps:.3g}")

    csec = dict(DEFAULTS["checks"])
    csec.update(raw.get("checks", {}))
    cfg.tol_c = float(csec["tol_c"])
    eta = csec["eta"]
    cfg.eta = list(eta) if isinstance(eta, list) else [eta]
    sl = csec["s_list"]
    cfg.s_list = list(sl) if isinstance(sl, list) else [sl]
    cfg.energy_tol = float(csec["energy_tol"])
    cfg.bank_size = int(csec["bank_size"])
    cfg.bank_modes = int(csec["bank_modes"])

    cfg.output_dir = raw.get("output", {}).get("dir", "")

    # initial-data validation by dense sampling (only when grid is sane)
    if not errors or all(e.startswith(("params", "sweep", "time")) for e in errors):
        c1, c2 = cfg.initial_density_range()
        if c1 <= 0:
            errors.append(f"initial.rho: Fourier sum dips to {c1:.4g} <= 0 "
                          "(dense sampling at 8x grid resolution)")
        if cfg.paper_initial_conditions and not cfg.is_2d:
            smax = cfg.initial_shear_max()
            if model == "singular1d":
                if smax >= 1.0:
                    errors.append(
                        f"initial.u_modes: |du0/dx| reaches {smax:.4g}; the "
                        "singular model requires |du0/dx| < 1")
            elif smax > 1.0 + 1e-12:
                errors.append(
                    f"initial.u_modes: |du0/dx| reaches {smax:.4g} > 1, "
                    "violating the max-shear initial-data hypothesis")

    if errors:
        raise ValidationError(errors)
    return cfg


def load_config(path):
    with open(path) as f:
        return parse_config(f.read())
