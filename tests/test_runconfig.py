from dataclasses import fields

import pytest

from trustsim.engine import Behavior, ConfigError, Injection, SimConfig
from trustsim.runconfig import config_keys, load_run_config, parse_run_config

BASE = """
# desk-scale example
good_founders = 8
bad_founders = 2
liar_founders = 2
catalog_size = 24
n = 4                     # holdings are catalog/n files each
p = 0.9
penalty = 30.0
threshold = 0
total_cycles = 5
rng_seed = 7
metrics_csv = out/metrics.csv
"""


def test_parse_happy_path():
    run = parse_run_config(BASE)
    assert run.sim.good_founders == 8
    assert run.sim.p == 0.9
    assert run.sim.queries_per_cycle == 1  # population // 10
    assert run.sim.reach is not None
    assert run.metrics_csv == "out/metrics.csv"
    assert run.trace_csv is None


def test_optional_keys_parse():
    run = parse_run_config(
        BASE
        + "newcomers = 2:3:good,4:1:liar\n"
        + "trace_csv = out/trace.csv\nfloor = 0\nreach = 6\nqueries_per_cycle = 9\n"
    )
    assert run.sim.newcomers == (
        Injection(2, 3, Behavior.GOOD_SERVER),
        Injection(4, 1, Behavior.LIAR),
    )
    assert run.sim.reach == 6
    assert run.sim.queries_per_cycle == 9
    assert run.trace_csv == "out/trace.csv"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE + "mystery = 1\n")
    assert err.value.key == "mystery"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE + "p = 0.5\n")
    assert err.value.key == "p"


def test_missing_required_key_named():
    text = BASE.replace("penalty = 30.0\n", "")
    with pytest.raises(ConfigError) as err:
        parse_run_config(text)
    assert err.value.key == "penalty"


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE.replace("p = 0.9", "p = fast"))
    assert err.value.key == "p"
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE + "newcomers = 2:3\n")
    assert err.value.key == "newcomers"


def test_garbled_line_rejected():
    with pytest.raises(ConfigError):
        parse_run_config(BASE + "just some words\n")


def test_validation_errors_surface_offending_key():
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE + "reach = 500\n")
    assert err.value.key == "reach"


def test_overrides_beat_file_values():
    run = parse_run_config(BASE, overrides={"rng_seed": "42", "reach": "6"})
    assert run.sim.rng_seed == 42
    assert run.sim.reach == 6
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE, overrides={"nope": "1"})
    assert err.value.key == "nope"


def test_load_run_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    run = load_run_config(path)
    assert run.sim.total_cycles == 5


def test_config_keys_cover_paths():
    keys = config_keys()
    assert len(set(keys)) == len(keys)
    assert set(keys) == {f.name for f in fields(SimConfig)} | {"metrics_csv", "trace_csv"}


def test_empty_output_path_rejected():
    for key in ("metrics_csv", "trace_csv"):
        with pytest.raises(ConfigError) as err:
            parse_run_config(BASE, overrides={key: ""})
        assert err.value.key == key
    with pytest.raises(ConfigError) as err:
        parse_run_config(BASE.replace("metrics_csv = out/metrics.csv", "metrics_csv ="))
    assert err.value.key == "metrics_csv"
