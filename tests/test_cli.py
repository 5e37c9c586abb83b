import os
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from trustsim.chart import SVG_NS
from trustsim.cli import _build_parser, _with_seed_suffix, main
from trustsim.engine import METRICS_CSV_HEADER
from trustsim.game import (
    expected_liar_payoff,
    penalty_bound_descending,
    penalty_bound_dominance,
    recommended_penalty,
)


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, **overrides):
    values = dict(
        good_founders=8, bad_founders=2, liar_founders=2,
        catalog_size=24, n=4, p=0.9, penalty=30.0, threshold=0,
        total_cycles=5, rng_seed=7, reach=6, queries_per_cycle=10,
        metrics_csv=str(tmp_path / "metrics.csv"),
    )
    values.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
    return path, values


def parsed_report(out: str) -> dict[str, float]:
    report = {}
    for line in out.splitlines():
        match = re.match(r"\s*(\w+)\s*= ([-+0-9.e]+)", line)
        if match:
            report[match.group(1)] = float(match.group(2))
    return report


# --- analyze ---


def test_analyze_reports_exact_calibration(capsys):
    assert run_cli("analyze", "--n", "100", "--j", "30", "--p", "0.9") == 0
    out = capsys.readouterr().out
    report = parsed_report(out)
    assert report["penalty_bound_dominance"] == penalty_bound_dominance(100, 30, 0.9)
    assert report["penalty_bound_descending"] == penalty_bound_descending(30, 0.9)
    assert report["recommended_penalty"] == recommended_penalty(30, 0.9)
    assert report["liar_payoff_at_penalty"] == expected_liar_payoff(
        0.9, recommended_penalty(30, 0.9), 30
    )
    assert report["recommended_threshold"] == 1381
    assert "dominance outcome: (by_trust, lying)" in out


def test_analyze_epsilon_flag(capsys):
    assert run_cli("analyze", "--n", "100", "--j", "30", "--p", "0.9",
                   "--epsilon", "0.5") == 0
    assert parsed_report(capsys.readouterr().out)["recommended_threshold"] == 209


def test_analyze_rejects_pure_trust_selection(capsys):
    assert run_cli("analyze", "--n", "100", "--j", "30", "--p", "1.0") == 2
    assert "infeasible" in capsys.readouterr().err


def test_analyze_usage_error():
    assert run_cli("analyze", "--n", "100") == 2


@pytest.mark.parametrize("margin", ["nan", "inf", "1e308"])
def test_analyze_rejects_a_margin_without_a_finite_penalty(capsys, margin):
    assert run_cli("analyze", "--n", "100", "--j", "30", "--p", "0.9", "--margin", margin) == 2
    captured = capsys.readouterr()
    assert "margin" in captured.err and captured.out == ""


# The full report, byte for byte, for a dominance win, a tie (n = 1: truth
# and lying both earn 1 per round) and non-default reward and cost.
ANALYZE_GOLDEN = [
    (["--n", "100", "--j", "30", "--p", "0.9"], """\
calibration for n=100 j=30 p=0.9
  penalty_bound_dominance  = 296.00000000000006
  penalty_bound_descending = 299.00000000000006
  recommended_penalty      = 328.9000000000001  (margin 0.1)
  liar_payoff_at_penalty   = -0.09966666666666668
  recommended_threshold    = 1381  (epsilon 0.01)
  lying_dominated          = True  (mechanism: by trust with probability p, 1/n vs liar payoff)
payoff matrix (requester / responder):
                             truthful |                    lying
  by_trust                 9.0 / 0.01 |                9.0 / 1.0
  random                   9.0 / 0.01 | -1.0 / -9.99666666666667
dominance outcome: (by_trust, lying)  (pure strategies of the matrix: the requester may always select by trust)
"""),
    (["--n", "1", "--j", "30", "--p", "0.9"], """\
calibration for n=1 j=30 p=0.9
  penalty_bound_dominance  = -0.9999999999999964
  penalty_bound_descending = 299.00000000000006
  recommended_penalty      = 328.9000000000001  (margin 0.1)
  liar_payoff_at_penalty   = -0.09966666666666668
  recommended_threshold    = 1381  (epsilon 0.01)
  lying_dominated          = True  (mechanism: by trust with probability p, 1/n vs liar payoff)
payoff matrix (requester / responder):
                             truthful |                    lying
  by_trust                  9.0 / 1.0 |                9.0 / 1.0
  random                    9.0 / 1.0 | -1.0 / -9.99666666666667
dominance outcome: tie — surviving strategies ['by_trust'] x ['truthful', 'lying']  (pure strategies of the matrix: the requester may always select by trust)
"""),
    (["--n", "3", "--j", "2", "--p", "0.3", "--reward", "5", "--cost", "2"], """\
calibration for n=3 j=2 p=0.3
  penalty_bound_dominance  = 0.9047619047619047
  penalty_bound_descending = 1.857142857142857
  recommended_penalty      = 2.0428571428571427  (margin 0.1)
  liar_payoff_at_penalty   = -0.06499999999999995
  recommended_threshold    = 12  (epsilon 0.01)
  lying_dominated          = True  (mechanism: by trust with probability p, 1/n vs liar payoff)
payoff matrix (requester / responder):
                               truthful |                      lying
  by_trust     3.0 / 0.3333333333333333 |                  3.0 / 1.0
  random       3.0 / 0.3333333333333333 | -2.0 / -0.5214285714285714
dominance outcome: (by_trust, lying)  (pure strategies of the matrix: the requester may always select by trust)
"""),
]


@pytest.mark.parametrize("argv, expected", ANALYZE_GOLDEN, ids=["win", "tie", "reward-cost"])
def test_analyze_output_is_unchanged(argv, expected, capsys):
    assert run_cli("analyze", *argv) == 0
    assert capsys.readouterr().out == expected


# --- simulate ---


def test_simulate_writes_metrics(tmp_path, capsys):
    path, values = write_config(tmp_path)
    assert run_cli("simulate", str(path)) == 0
    out = capsys.readouterr().out
    assert "final averages" in out
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(lines) == values["total_cycles"] + 1


def test_simulate_byte_identical_reruns(tmp_path):
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path)) == 0
    first = (tmp_path / "metrics.csv").read_bytes()
    assert run_cli("simulate", str(path)) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == first


def test_simulate_flag_overrides_config(tmp_path):
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path)) == 0
    base = (tmp_path / "metrics.csv").read_bytes()
    assert run_cli("simulate", str(path), "--rng-seed", "99") == 0
    assert (tmp_path / "metrics.csv").read_bytes() != base


def test_simulate_reach_error_names_key(tmp_path, capsys):
    path, _ = write_config(tmp_path, reach=100)
    assert run_cli("simulate", str(path)) == 2
    assert "reach" in capsys.readouterr().err


def test_simulate_unknown_flag_value_is_config_error(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path), "--p", "nope") == 2
    assert "p" in capsys.readouterr().err


def test_simulate_missing_config_is_io_error(tmp_path):
    assert run_cli("simulate", str(tmp_path / "nope.cfg")) == 3


def test_simulate_unwritable_output_is_io_error(tmp_path):
    path, _ = write_config(tmp_path, metrics_csv=str(tmp_path / "no-such-dir" / "m.csv"))
    assert run_cli("simulate", str(path)) == 3


def test_simulate_checks_every_output_path_before_running(tmp_path):
    missing = tmp_path / "no-such-dir"
    path, _ = write_config(tmp_path, metrics_csv=str(missing / "m.csv"),
                           trace_csv=str(tmp_path / "trace.csv"))
    assert run_cli("simulate", str(path)) == 3
    assert not (tmp_path / "trace.csv").exists()  # failed before the first cycle
    # With a seed list, the last seed's trace path is checked before seed 1 runs.
    path, _ = write_config(tmp_path, trace_csv=str(missing / "trace.csv"))
    assert run_cli("simulate", str(path), "--seeds", "1,2") == 3
    assert not list(tmp_path.glob("metrics*.seed*"))


def _forbid_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the run started before the output paths were checked")

    monkeypatch.setattr("trustsim.cli.Simulation", fail)


def test_simulate_empty_output_path_is_config_error(tmp_path, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    path, _ = write_config(tmp_path, metrics_csv="")
    assert run_cli("simulate", str(path)) == 2
    assert "metrics_csv" in capsys.readouterr().err
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path), "--trace-csv", "") == 2
    assert "trace_csv" in capsys.readouterr().err


def test_simulate_directory_output_path_is_io_error(tmp_path, monkeypatch):
    _forbid_simulation(monkeypatch)
    path, _ = write_config(tmp_path, metrics_csv=str(tmp_path))
    assert run_cli("simulate", str(path)) == 3
    path, _ = write_config(tmp_path, trace_csv=str(tmp_path))
    assert run_cli("simulate", str(path)) == 3


@pytest.mark.parametrize("seeds", [(), ("--seeds", "1,2")])
def test_simulate_trace_onto_metrics_file_is_config_error(seeds, tmp_path, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    # The same file under another spelling, before and after the seed suffix.
    path, _ = write_config(tmp_path, trace_csv=str(tmp_path / "." / "metrics.csv"))
    assert run_cli("simulate", str(path), *seeds) == 2
    assert "error: trace_csv:" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [(), ("--seeds", "1")])
@pytest.mark.parametrize("key", ["metrics_csv", "trace_csv"])
@pytest.mark.parametrize("exists", [True, False])
def test_simulate_output_path_ending_in_separator_is_io_error(
    exists, key, seeds, tmp_path, monkeypatch
):
    _forbid_simulation(monkeypatch)
    out = tmp_path / "out"
    if exists:
        out.mkdir()
    path, _ = write_config(tmp_path, **{key: str(out) + os.sep})
    assert run_cli("simulate", str(path), *seeds) == 3


@pytest.mark.parametrize("path, seed, expected", [
    ("metrics.csv", 1, "metrics.seed1.csv"),
    ("metrics", 1, "metrics.seed1"),
    ("out.d/metrics", 1, "out.d/metrics.seed1"),
    ("./metrics", 2, "./metrics.seed2"),
    ("out.d/m.tar.gz", 3, "out.d/m.tar.seed3.gz"),
    (".hidden", 4, ".hidden.seed4"),
])
def test_seed_suffix_goes_on_the_file_name(path, seed, expected):
    assert _with_seed_suffix(path, seed) == expected


def test_simulate_duplicate_seed_is_config_error(tmp_path, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path), "--seeds", "1, 2,1") == 2
    assert "error: --seeds: seed 1 is listed twice" in capsys.readouterr().err


def test_simulate_non_integer_seed_is_config_error(tmp_path, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path), "--seeds", "1,x") == 2
    assert "error: --seeds: 'x' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
@pytest.mark.parametrize("entry", ["rng_seed", "--rng-seed", "--seeds", "liar-payoff", "escape"])
def test_seed_outside_64_bits_is_rejected_naming_the_key(entry, seed, tmp_path, capsys,
                                                         monkeypatch):
    """Streams use a seed modulo 2**64, so -1 and 2**64 + 1 would replay the
    streams of 2**64 - 1 and 1; every entry point rejects them before a run."""
    _forbid_simulation(monkeypatch)
    for name in ("mc_liar_payoff", "mc_escape_frequency"):
        monkeypatch.setattr(f"trustsim.oracle.{name}", None)  # a call fails the test
    if entry in ("liar-payoff", "escape"):
        argv = ["oracle", entry, "--p", "0.9", "--j", "30", f"--seed={seed}"]
        argv += ["--penalty", "329"] if entry == "liar-payoff" else ["--streak", "5"]
        named = "argument --seed: expected a seed within [0, 2**64)"
    elif entry == "rng_seed":
        path, _ = write_config(tmp_path, rng_seed=seed)
        argv, named = ["simulate", str(path)], "error: rng_seed: must be within [0, 2**64)"
    elif entry == "--rng-seed":
        path, _ = write_config(tmp_path)
        argv = ["simulate", str(path), f"--rng-seed={seed}"]
        named = "error: rng_seed: must be within [0, 2**64)"
    else:
        path, _ = write_config(tmp_path)
        argv = ["simulate", str(path), "--seeds", f"1,{seed}"]
        named = f"error: --seeds: seed {seed} is outside [0, 2**64)"
    assert run_cli(*argv) == 2
    assert named in capsys.readouterr().err


def test_simulate_seed_list_writes_one_csv_per_seed(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert run_cli("simulate", str(path), "--seeds", "1,2") == 0
    out = capsys.readouterr().out
    assert "seed=1" in out and "seed=2" in out
    for seed in (1, 2):
        csv_path = tmp_path / f"metrics.seed{seed}.csv"
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 6
    assert (tmp_path / "metrics.seed1.csv").read_bytes() != (
        tmp_path / "metrics.seed2.csv"
    ).read_bytes()


def test_simulate_trace_export(tmp_path):
    path, _ = write_config(tmp_path, trace_csv=str(tmp_path / "trace.csv"))
    assert run_cli("simulate", str(path)) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "round,peer_id,kind,delta,new_value"
    assert len(lines) > 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, argv", [
    *((key, ("simulate",)) for key in ("p", "penalty", "threshold", "floor")),
    *(
        (flag, ("analyze", "--n", "100", "--j", "30", "--p", "0.9"))
        for flag in ("--p", "--epsilon", "--margin", "--reward", "--cost")
    ),
    *(
        (flag, ("oracle", "liar-payoff", "--p", "0.9", "--penalty", "329", "--j", "30"))
        for flag in ("--p", "--penalty", "--sigmas", "--trials")
    ),
    *(
        (flag, ("oracle", "escape", "--j", "30", "--p", "0.9", "--streak", "5"))
        for flag in ("--p", "--sigmas", "--trials")
    ),
])
def test_non_finite_reals_rejected_naming_the_key(key, argv, value, tmp_path, capsys):
    if key.startswith("--"):
        argv = [*argv, f"{key}={value}"]  # the last occurrence wins
        named = f"argument {key}: expected a finite number"
    else:
        config, _ = write_config(tmp_path, **{key: value})
        argv = [*argv, str(config)]
        named = f"error: {key}: must be a finite number"
    assert run_cli(*argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, argv", [
    *((flag, ("analyze", "--n", "100", "--j", "30", "--p", "0.9")) for flag in ("--n", "--j")),
    ("--j", ("oracle", "liar-payoff", "--p", "0.9", "--penalty", "329", "--j", "30")),
    *(
        (flag, ("oracle", "escape", "--j", "30", "--p", "0.9", "--streak", "5"))
        for flag in ("--j", "--streak")
    ),
    *((key, ("simulate",)) for key in ("good_founders", "liar_founders", "catalog_size")),
])
def test_integers_beyond_a_float_rejected_naming_the_key(key, argv, tmp_path, capsys):
    value = str(10**400)
    if key.startswith("--"):
        argv = [*argv, f"{key}={value}"]  # the last occurrence wins
        named = f"argument {key}: invalid integer value"
    else:
        # No reach: were the value let through, the calibrated reach would
        # overflow at once instead of building that many peers.
        config, _ = write_config(tmp_path, reach=None, **{key: value})
        argv = [*argv, str(config)]
        named = f"error: {key}: expected an integer within"
    assert run_cli(*argv) == 2
    assert named in capsys.readouterr().err


# --- oracle ---


def test_oracle_liar_payoff_pass(capsys):
    code = run_cli("oracle", "liar-payoff", "--p", "0.9", "--penalty", "299",
                   "--j", "30", "--trials", "50000", "--seed", "5")
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=PASS" in out
    closed = float(re.search(r"closed_form=([-+0-9.e]+)", out).group(1))
    assert closed == pytest.approx(0.0, abs=1e-12)


def test_oracle_escape_pass(capsys):
    code = run_cli("oracle", "escape", "--j", "30", "--p", "0.9", "--streak", "0",
                   "--trials", "1000")
    assert code == 0
    out = capsys.readouterr().out
    assert "mc_mean=1.0" in out and "verdict=PASS" in out


def test_oracle_fail_exit_code(capsys):
    # an absurdly tight acceptance band turns sampling noise into a FAIL
    code = run_cli("oracle", "liar-payoff", "--p", "0.5", "--penalty", "3",
                   "--j", "3", "--trials", "5000", "--seed", "1",
                   "--sigmas", "1e-9")
    assert code == 1
    assert "verdict=FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-4", "0"])
@pytest.mark.parametrize("argv", [
    ("liar-payoff", "--p", "0.9", "--penalty", "329", "--j", "30"),
    ("escape", "--j", "30", "--p", "0.9", "--streak", "0"),
])
def test_oracle_rejects_non_positive_sigmas(argv, value, capsys):
    # At the default trials a bad --sigmas would run 1e5-1e6 trials first.
    assert run_cli("oracle", *argv, "--trials", "100", "--sigmas", value) == 2
    assert "argument --sigmas: expected a number > 0" in capsys.readouterr().err


def test_oracle_invalid_params(capsys):
    assert run_cli("oracle", "liar-payoff", "--p", "0.9", "--penalty", "10",
                   "--j", "0", "--trials", "2000") == 2
    assert run_cli("oracle", "escape", "--j", "30", "--p", "1.5", "--streak", "1",
                   "--trials", "2000") == 2
    assert run_cli("oracle", "liar-payoff", "--p", "0.9", "--penalty", "-5",
                   "--j", "30", "--trials", "1000") == 2
    assert "penalty must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value, trials", [("1e6", 10**6), ("1000.9", None), ("nan", None)])
def test_oracle_trials_must_be_a_whole_number(value, trials, capsys):
    argv = ["oracle", "escape", "--j", "30", "--p", "0.9", "--streak", "1", "--trials", value]
    if trials is None:
        assert run_cli(*argv) == 2
        assert "argument --trials: expected a" in capsys.readouterr().err
    else:
        assert _build_parser().parse_args(argv).trials == trials


def test_oracle_scientific_trials(capsys):
    code = run_cli("oracle", "escape", "--j", "2", "--p", "0.0", "--streak", "1",
                   "--trials", "1e4", "--seed", "2")
    assert code == 0
    assert "trials=10000" in capsys.readouterr().out


# --- README ---


def test_readme_commands_parse():
    """Every ``trustsim`` line in the README's sh blocks parses (none is run)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("trustsim ")
    ]
    assert {argv[0] for argv in commands} == {"analyze", "simulate", "oracle", "plot"}
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trustsim {shlex.join(argv)}")


# --- plot ---


def test_plot_round_trips_simulate_output(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        newcomers="2:2:good",
        total_cycles=6,
    )
    assert run_cli("simulate", str(path)) == 0
    svg_path = tmp_path / "chart.svg"
    assert run_cli("plot", str(tmp_path / "metrics.csv"), str(svg_path)) == 0
    root = ET.fromstring(svg_path.read_text())
    series = root.findall(f".//{{{SVG_NS}}}polyline")
    assert {line.get("data-name") for line in series} >= {"good", "bad", "liar"}


def test_plot_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("cycle,nope\n0,1\n")
    assert run_cli("plot", str(bad), str(tmp_path / "c.svg")) == 2
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_rejects_non_finite_reals(tmp_path, capsys, value):
    csv_path = tmp_path / "metrics.csv"
    csv_path.write_text(f"{METRICS_CSV_HEADER}\n0,1,1,1,,1,0\n1,1,{value},1,,1,0\n")
    svg_path = tmp_path / "chart.svg"
    assert run_cli("plot", str(csv_path), str(svg_path)) == 2
    err = capsys.readouterr().err
    assert f"line 3: avg_trust_bad: expected a finite number, got {value!r}" in err
    assert not svg_path.exists()


def test_plot_missing_csv_is_io_error(tmp_path):
    assert run_cli("plot", str(tmp_path / "none.csv"), str(tmp_path / "c.svg")) == 3
