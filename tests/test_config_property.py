"""The config loader under mutation (ROADMAP finding 18): small valid 1D
and 2D configs, with and without a p sweep, with 1 to 3 of the keys the
loader reads set to an edge value, each load to a Config or to a
ParseError or ValidationError, never to another exception."""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from thickflow.config import _READ, Config, parse_config
from thickflow.errors import ParseError, ValidationError
from thickflow.powerlaw1d import PowerLawParams
from thickflow.semistationary2d import Stokes2DParams

BASE = {
    1: """
[model]
kind = powerlaw1d
[grid]
n = 32
[params]
p = 8.0
a = 2.0
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
paper_initial_conditions = true
[time]
T = 0.02
snapshots = 8
[checks]
s_list = 0.01, 0.005
""",
    2: """
[model]
kind = semistationary2d
[grid]
nx = 16
ny = 16
[params]
p = 8.0
[initial]
rho_modes = 1, 0, 0.3, 0.0
[time]
T = 0.02
snapshots = 8
[checks]
s_list = 0.01, 0.005
""",
}
SWEEP_P = "[sweep]\nkind = p\nvalues = 4, 8\n"

# the section.key names the loader reads, per dimension
KEYS = {
    ndim: [("grid", k) for k in grid]
    + [("params", f.name) for f in fields(params)]
    + [("initial", f"{field}_{part}") for field in means
       for part in ("mean", "modes")]
    + [(section, key) for section, keys in _READ.items() for key in keys]
    for ndim, grid, params, means in (
        (1, ["n"], PowerLawParams, ["rho", "u"]),
        (2, ["nx", "ny"], Stokes2DParams, ["rho"]))}

# finding 18's edge values: zero, negative, not-a-number, infinities,
# huge, text, a list and a bool
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "abc", "1, 2", "true"]


@st.composite
def mutated_configs(draw):
    """A base config, maybe with a p sweep, then 1 to 3 of its read keys
    set to edge values; a repeated [section] header adds to the section,
    and a later key overrides an earlier one."""
    ndim = draw(st.sampled_from([1, 2]))
    text = BASE[ndim] + (SWEEP_P if draw(st.booleans()) else "")
    keys = draw(st.lists(st.sampled_from(KEYS[ndim]), min_size=1,
                         max_size=3, unique=True))
    for section, key in keys:
        text += f"[{section}]\n{key} = {draw(st.sampled_from(EDGES))}\n"
    return text


def test_base_configs_load():
    # the mutations start from valid configs; a 2D config takes no sweep
    for text in (BASE[1], BASE[1] + SWEEP_P, BASE[2]):
        assert isinstance(parse_config(text), Config)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
def test_a_mutated_config_loads_or_is_a_config_error(text):
    try:
        cfg = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, Config)
