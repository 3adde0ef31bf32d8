"""Property test: the config echo parses back to the config that wrote it.

Every field is drawn and then read back through the parser that ``cli``
derives from its default, so each parser (float, int, str, bool and the
comma lists) must invert ``write_config_echo``'s formatting.
"""

from dataclasses import fields

from hypothesis import given, reject, settings
from hypothesis import strategies as st

import polaron_deco.cli as cli
from polaron_deco import ConfigError

finite = st.floats(allow_nan=False, allow_infinity=False)
scale = st.floats(min_value=0.0, max_value=1e6)
count = st.integers(min_value=1, max_value=2**40)

# one strategy per ExperimentConfig field; t_max is drawn as a step count
# and scaled by dt, because validate() wants an integer multiple of dt
FIELDS = {
    "mode": st.sampled_from(cli.MODES),
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
    "n_modes": count,
    "n_max": count,
    "cycles": st.lists(count, min_size=1, max_size=6).map(tuple),
    "total_time": st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    "out_dir": st.text(alphabet="abcXYZ019_-./", min_size=1, max_size=20),
    "svg": st.booleans(),
}


def _config(values):
    return cli.ExperimentConfig(**dict(values, t_max=values["dt"] * values["t_max"]))


def test_every_field_is_drawn():
    assert list(FIELDS) == [f.name for f in fields(cli.ExperimentConfig)]


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(FIELDS).map(_config))
def test_echo_round_trip(tmp_path_factory, config):
    try:
        config.validate()
    except ConfigError:
        reject()
    path = tmp_path_factory.mktemp("echo") / "config_echo.cfg"
    cli.write_config_echo(config, path)
    text = path.read_text()
    parsed = cli.parse_config(file_text=text)
    assert parsed == config
    # == takes 4.0 for 4; the echo of the parsed config also keeps the types
    cli.write_config_echo(parsed, path)
    assert path.read_text() == text
