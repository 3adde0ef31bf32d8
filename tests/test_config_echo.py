"""Property test: the config echo parses back to the config that wrote it.

A verb is drawn, then every key it reads (plus ``out_dir`` and ``svg``);
the keys it does not read keep their defaults, as ``parse_config`` leaves
them. Each key goes through the parser that ``cli`` derives from its
default, so each parser (float, int, str, bool and the comma lists) must
invert ``write_config_echo``'s formatting.
"""

from dataclasses import fields

from hypothesis import given, reject, settings
from hypothesis import strategies as st

import polaron_deco.cli as cli
from polaron_deco import ConfigError
from polaron_deco.oracle import DIM_CAP

finite = st.floats(allow_nan=False, allow_infinity=False)
scale = st.floats(min_value=0.0, max_value=1e6)
count = st.integers(min_value=1, max_value=2**40)

# one strategy per ExperimentConfig field; t_max is drawn as a step count
# and scaled by dt, because TimeGrid wants an integer multiple of dt, and
# n_modes is cut to what fits DIM_CAP at the drawn n_max
FIELDS = {
    "mode": st.sampled_from(list(cli.VERBS)),
    "lambda_g": scale,
    "s": scale,
    "j_hop": finite,
    "t_max": st.integers(min_value=1, max_value=2000),
    "dt": st.floats(min_value=1e-3, max_value=10.0),
    "rho_ss": st.floats(min_value=0.2, max_value=0.8),
    "re_rho_st": st.floats(min_value=-0.28, max_value=0.28),
    "im_rho_st": st.floats(min_value=-0.28, max_value=0.28),
    "s_values": st.lists(finite, min_size=1, max_size=5).map(tuple),
    "lambda_values": st.lists(finite, min_size=1, max_size=5).map(tuple),
    "n_modes": st.integers(min_value=1, max_value=11),
    "n_max": st.integers(min_value=1, max_value=DIM_CAP // 2 - 1),
    "cycles": st.lists(count, min_size=3, max_size=6, unique=True).map(tuple),
    "total_time": st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    "out_dir": st.text(alphabet="abcXYZ019_-./", min_size=1, max_size=20),
    "svg": st.booleans(),
}


def _max_modes(n_max):
    """Most modes whose space 2 * (n_max + 1)**n_modes fits DIM_CAP."""
    n_modes = 1
    while 2 * (n_max + 1) ** (n_modes + 1) <= DIM_CAP:
        n_modes += 1
    return n_modes


@st.composite
def verb_configs(draw):
    mode = draw(FIELDS["mode"])
    keys = cli.VERBS[mode].reads + ("out_dir", "svg")
    values = {key: draw(FIELDS[key]) for key in FIELDS if key in keys}
    if "n_modes" in values:
        values["n_modes"] = min(values["n_modes"], _max_modes(values["n_max"]))
    if "t_max" in values:
        values["t_max"] *= values["dt"]
    try:
        return cli.ExperimentConfig(mode=mode, **values)
    except ConfigError:
        reject()


def test_every_field_is_drawn():
    assert list(FIELDS) == [f.name for f in fields(cli.ExperimentConfig)]


@settings(max_examples=200, deadline=None)
@given(verb_configs())
def test_echo_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("echo") / "config_echo.cfg"
    cli.write_config_echo(config, path)
    text = path.read_text()
    reads = cli.VERBS[config.mode].reads
    assert [line.split(" = ")[0] for line in text.splitlines()] == [
        f.name for f in fields(config) if f.name in ("mode", "out_dir", "svg") + reads]
    parsed = cli.parse_config(file_text=text)
    assert parsed == config
    # == takes 4.0 for 4; the echo of the parsed config also keeps the types
    cli.write_config_echo(parsed, path)
    assert path.read_text() == text
