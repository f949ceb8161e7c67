"""Line-based config format: [section] headers, key = value, # comments.

The dialect is deliberately minimal and self-contained so configs are
bit-exactly specifiable: values are scalars, booleans, or flat
comma-separated lists. Initial data is parameterized as truncated
Fourier series; 1D fields use flat triples (k, cos_amp, sin_amp) and 2D
fields flat quadruples (kx, ky, cos_amp, sin_amp) for plane waves
cos(2 pi (kx x + ky y)) etc., which keeps runs reproducible across
implementations.

Validation collects every error (not just the first). The [params]
defaults and ranges are those of the models' params classes, checked by
building the params of the run and of every sweep member; positivity of
the initial density, and the 1D model's rule on max |du0/dx| when
paper_initial_conditions is set, are checked by dense sampling at 8x
grid resolution. Every other default is that of its Config field, and
a key that nothing reads is an error, as an unknown [params] key is.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError, ValidationError, is_number
from .grids import Grid1D, Grid2D, PlaneWaves
from .powerlaw1d import PowerLawModel
from .semistationary2d import Stokes2DModel
from .singular1d import SingularModel

# model name -> model class, whose params class is its params_class;
# stepper1d.advance describes the protocol they share
MODELS = {cls.name: cls for cls in (PowerLawModel, SingularModel,
                                    Stokes2DModel)}

_SECTIONS = ("model", "grid", "params", "initial", "time", "sweep",
             "checks", "output")

# every key some model's params class has: a cross sweep builds the
# params of both 1D models from one [params] section
_PARAM_KEYS = {f.name for cls in MODELS.values()
               for f in fields(cls.params_class)}


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

    mean: float
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


@dataclass
class Config:
    model: str
    n: int = 0
    nx: int = 0
    ny: int = 0
    params: dict = field(default_factory=dict)   # the [params] keys given
    run_params: object = None                    # params of model, built
    rho0: FourierField = field(default_factory=lambda: FourierField(1.0))
    u0: FourierField = field(default_factory=lambda: FourierField(0.0))  # 1D
    paper_initial_conditions: bool = False
    seed: int = 1
    T: float = 0.0
    snapshots: int = 32
    snapshot_times: list = field(default_factory=list)
    sweep_kind: str = ""
    sweep_values: list = field(default_factory=list)
    sweep_eps_values: list = field(default_factory=list)
    sweep_eps_n: int = 0
    # (swept key, value, model, params, grid) of each sweep member, built
    sweep_members: list = field(default_factory=list)
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
        return MODELS[self.model].ndim == 2

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
        """Params of model (default: the config's) from the [params] keys
        its class has, with overrides; the class supplies the rest."""
        cls = MODELS[model or self.model].params_class
        src = dict(self.params, **overrides)
        return cls(**{f.name: src[f.name] for f in fields(cls)
                      if f.name in src})

    def initial_fields(self, g):
        if self.is_2d:
            return self.rho0.eval(*g.meshgrid()), None
        return self.rho0.eval(g.x), self.u0.eval(g.x)

    def initial_density_range(self, oversample=8):
        """(c1, c2) of the analytic initial density, dense sampling."""
        m = oversample * max(self.n, self.nx, self.ny)
        gx = np.arange(m) / m
        vals = self.rho0.eval(*np.meshgrid(*[gx] * MODELS[self.model].ndim,
                                           indexing="ij", copy=False))
        return float(np.min(vals)), float(np.max(vals))

    def initial_shear_max(self, oversample=8):
        m = oversample * self.n
        return float(np.max(np.abs(self.u0.eval_dx(np.arange(m) / m))))


# [section] -> keys read into the Config field named key, or section_key
# where that exists, like the field's default
_READ = {"time": ("T", "snapshots", "snapshot_times"),
         "initial": ("paper_initial_conditions", "seed"),
         "sweep": ("kind", "values", "eps_values", "eps_n"),
         "checks": ("tol_c", "eta", "s_list", "energy_tol", "bank_size",
                    "bank_modes"),
         "output": ("dir",)}


def parse_config(text):
    """Parse and validate; returns Config or raises ParseError /
    ValidationError (the latter lists all problems at once). Validation
    builds the run's params into run_params and those of every sweep
    member into sweep_members."""
    raw = parse_raw(text)
    errors = []

    model = raw.get("model", {}).get("kind")
    if model not in MODELS:
        raise ValidationError(f"model.kind: expected powerlaw1d | singular1d "
                              f"| semistationary2d, got {model!r}")

    cfg = Config(model=model, raw_text=text)
    used = {"model.kind"}

    def read(where, default):
        """The file's section.key if it has default's type; default if
        the key is absent or the value is bad. A list takes numbers, a
        float also an int (cast), and a string any value (as text). The
        key counts as read, so it is no unknown key."""
        used.add(where)
        section, key = where.split(".")
        value = raw.get(section, {}).get(key, default)
        kind = type(default)
        if kind is list:
            value = value if isinstance(value, list) else [value]
            if all(map(is_number, value)):
                return value
        elif kind is bool:
            if isinstance(value, bool):
                return value
        elif kind is str or is_number(value, kind):
            return kind(value)
        kind = "numbers" if kind is list else kind.__name__
        errors.append(f"{where}: expected {kind}, got {value!r}")
        return default

    if cfg.is_2d:
        cfg.nx = read("grid.nx", read("grid.n", cfg.nx))
        cfg.ny = read("grid.ny", cfg.nx)
    else:
        cfg.n = read("grid.n", cfg.n)
    grid = None
    try:
        grid = cfg.grid()
    except ValueError as e:
        errors.append(f"grid.{'nx/ny' if cfg.is_2d else 'n'}: {e}")
    for section, keys in _READ.items():
        for key in keys:
            attr = f"{section}_{key}" if hasattr(cfg, f"{section}_{key}") else key
            setattr(cfg, attr, read(f"{section}.{key}", getattr(cfg, attr)))
    if cfg.T < 0:
        errors.append("time.T: final time must be >= 0")
    outside = [t for t in cfg.snapshot_times if not 0 < t <= cfg.T]
    if outside:
        errors.append(f"time.snapshot_times: {outside} outside (0, T = "
                      f"{cfg.T}]")
    if not all(eta > 0 for eta in cfg.eta):
        errors.append(f"checks.eta: every eta must be positive, got {cfg.eta}")
    if cfg.bank_size < 1:
        errors.append(f"checks.bank_size: must be >= 1, got {cfg.bank_size}")

    width = 4 if cfg.is_2d else 3
    for name in ("rho",) if cfg.is_2d else ("rho", "u"):
        where, f = f"initial.{name}_modes", getattr(cfg, name + "0")
        flat = read(where, f.modes)
        if len(flat) % width:
            errors.append(f"{where}: expected flat " + (
                "(kx, ky, cos, sin) quadruples" if cfg.is_2d
                else "(k, cos, sin) triples"))
            flat = []
        setattr(cfg, name + "0", FourierField(
            read(f"initial.{name}_mean", f.mean),
            [tuple(flat[i:i + width]) for i in range(0, len(flat), width)]))

    cfg.params = raw.get("params", {})
    errors.extend(f"params.{k}: unknown parameter" for k in cfg.params
                  if k not in _PARAM_KEYS)
    reported = set()

    def build(model, prefix, **overrides):
        """model's params, checked by building them; None after recording
        the failures not reported yet."""
        try:
            return cfg.build_params(model, **overrides)
        except ValidationError as e:
            errors.extend(prefix + m for m in e.errors if m not in reported)
            reported.update(e.errors)

    cfg.run_params = build(model, "params.")

    kind = "" if cfg.is_2d else cfg.sweep_kind
    if cfg.sweep_kind and (cfg.is_2d or kind not in ("p", "eps", "cross")):
        errors.append(f"sweep.kind: expected p | eps | cross of a 1D model, "
                      f"got {cfg.sweep_kind!r} of {model}")
    for key in ("values", "eps_values"):
        vals = getattr(cfg, "sweep_" + key)
        if len({f"{v:g}" for v in vals}) < len(vals):
            errors.append(f"sweep.{key}: two of {vals} would share one member "
                          "directory (members are named with %g)")
    families = []   # (swept key, list key, model, grid, values)
    if kind in ("p", "cross"):
        if kind == "cross" and not cfg.sweep_values:
            errors.append("sweep.values: kind = cross needs p values")
        # a p sweep without values has one member, at the config's p
        families.append(("p", "values", "powerlaw1d", grid,
                         cfg.sweep_values or [None]))
    if kind in ("eps", "cross"):
        eps_key = "eps_values" if kind == "cross" else "values"
        eps_list = getattr(cfg, "sweep_" + eps_key)
        try:
            g_eps = Grid1D(cfg.sweep_eps_n) if cfg.sweep_eps_n else grid
        except ValueError as e:
            errors.append(f"sweep.eps_n: {e}")
            g_eps = None
        if kind == "cross" and cfg.n and cfg.sweep_eps_n % cfg.n:
            errors.append(
                f"sweep.eps_n: {cfg.sweep_eps_n} is not a multiple of grid.n "
                f"= {cfg.n}; the cross-model distance needs nested grids")
        if not eps_list:
            errors.append(f"sweep.{eps_key}: kind = {kind} needs eps values")
        elif g_eps is not None and min(eps_list) < 10.0 / g_eps.n:
            errors.append(
                f"sweep: eps_min = {min(eps_list)} under-resolves the "
                f"constraint layer; need eps >= 10 dx = {10.0 / g_eps.n:.3g}")
        families.append(("eps", eps_key, "singular1d", g_eps, eps_list))
    for key, list_key, member_model, g, values in families:
        for v in values:
            params = build(member_model,
                           f"sweep.{list_key}: member {key} = {v}: ",
                           **({} if v is None else {key: float(v)}))
            if params is not None and g is not None:
                cfg.sweep_members.append(
                    (key, float(getattr(params, key)), member_model, params, g))

    # initial-data validation by dense sampling (only when grid is sane)
    if all(e.startswith(("params", "sweep", "time", "checks")) for e in errors):
        c1, c2 = cfg.initial_density_range()
        if c1 <= 0:
            errors.append(f"initial.rho: Fourier sum dips to {c1:.4g} <= 0 "
                          "(dense sampling at 8x grid resolution)")
        if cfg.paper_initial_conditions and not cfg.is_2d:
            shear_error = MODELS[model].initial_shear_error(
                cfg.initial_shear_max())
            if shear_error:
                errors.append(f"initial.u_modes: {shear_error}")

    errors.extend(f"{section}.{key}: unknown key"
                  for section, keys in raw.items() if section != "params"
                  for key in keys if f"{section}.{key}" not in used)
    if errors:
        raise ValidationError(errors)
    return cfg


def load_config(path):
    with open(path) as f:
        return parse_config(f.read())
