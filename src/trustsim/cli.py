"""Command line interface.

Subcommands: ``analyze`` (calibrate the mechanism constants), ``simulate``
(run a config file and export metrics CSV), ``oracle`` (Monte-Carlo
validation of the closed forms), ``plot`` (render a metrics CSV as SVG).

Exit codes: 0 success / validation pass, 1 oracle fail, 2 usage or config
error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import stat
import sys

from . import game, oracle
from .chart import write_chart
from .engine import ConfigError, integer, run_simulation
from .ledger import EventCsvSink
from .runconfig import config_keys, load_run_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ValueError as exc:  # ConfigError and SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustsim",
        description="Calibrate and simulate the volunteer-credit trust mechanism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="calibration report for (n, j, p)")
    analyze.add_argument("--n", type=integer, required=True)
    analyze.add_argument("--j", type=integer, required=True)
    analyze.add_argument("--p", type=_real, required=True)
    analyze.add_argument("--epsilon", type=_real, default=0.01,
                         help="tolerated liar escape probability (default 0.01)")
    analyze.add_argument("--margin", type=_real, default=0.1,
                         help="safety margin over the penalty bound (default 0.1)")
    analyze.add_argument("--reward", type=_real, default=10.0)
    analyze.add_argument("--cost", type=_real, default=1.0)
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="run a simulation config file")
    simulate.add_argument("config", help="path to a key=value config file")
    simulate.add_argument("--seeds", default=None,
                          help="comma-separated seed list; one metrics CSV per seed")
    for key in config_keys():
        simulate.add_argument(f"--{key.replace('_', '-')}", dest=f"set_{key}",
                              default=None, metavar="VALUE",
                              help=f"override config key {key}")
    simulate.set_defaults(handler=_cmd_simulate)

    orc = sub.add_parser("oracle", help="Monte-Carlo validation of the closed forms")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    # One row per check. Its game inputs are listed in the order that both its
    # closed form and its estimator take them, ahead of trials and seed.
    for name, help_text, inputs, trials, closed_form, estimator in (
        ("liar-payoff", "per-round liar payoff estimate",
         (("p", _real), ("penalty", _real), ("j", integer)), 1_000_000,
         game.expected_liar_payoff, oracle.mc_liar_payoff),
        ("escape", "liar escape frequency estimate",
         (("j", integer), ("p", _real), ("streak", integer)), 100_000,
         game.escape_probability, oracle.mc_escape_frequency),
    ):
        check = orc_sub.add_parser(name, help=help_text)
        for key, parse in inputs:
            check.add_argument(f"--{key}", type=parse, required=True)
        check.add_argument("--trials", type=_count, default=trials)
        check.add_argument("--seed", type=_seed, default=0)
        check.add_argument("--sigmas", type=_positive, default=4.0)
        check.set_defaults(handler=_cmd_oracle, inputs=[key for key, _ in inputs],
                           closed_form=closed_form, estimator=estimator)

    plot = sub.add_parser("plot", help="render a metrics CSV as an SVG line chart")
    plot.add_argument("csv", help="metrics CSV path")
    plot.add_argument("svg", help="output SVG path")
    plot.set_defaults(handler=_cmd_plot)
    return parser


def _real(text: str) -> float:
    """A finite float; argparse names the option when this rejects it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _real(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """A whole number, in any float notation (accepts 1e6)."""
    value = _real(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(value)


def _seed(text: str) -> int:
    """A seed within [0, 2**64); streams use a seed modulo 2**64."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"expected a seed within [0, 2**64), got {text!r}")
    return seed


def _cmd_analyze(args) -> int:
    bound_dom = game.penalty_bound_dominance(args.n, args.j, args.p)
    bound_desc = game.penalty_bound_descending(args.j, args.p)
    penalty = game.recommended_penalty(args.j, args.p, args.margin)
    liar_payoff = game.expected_liar_payoff(args.p, penalty, args.j)
    threshold = game.recommend_threshold(args.j, args.p, args.epsilon)
    params = game.GameParams(
        n=args.n, j=args.j, p=args.p, penalty=penalty,
        reward=args.reward, cost=args.cost,
    )
    matrix = game.payoff_matrix(params)
    result = game.eliminate_dominated(matrix)

    print(f"calibration for n={args.n} j={args.j} p={args.p!r}")
    print(f"  penalty_bound_dominance  = {bound_dom!r}")
    print(f"  penalty_bound_descending = {bound_desc!r}")
    print(f"  recommended_penalty      = {penalty!r}  (margin {args.margin!r})")
    print(f"  liar_payoff_at_penalty   = {liar_payoff!r}")
    print(f"  recommended_threshold    = {threshold}  (epsilon {args.epsilon!r})")
    print(f"  lying_dominated          = {game.lying_is_dominated(params)}"
          "  (mechanism: by trust with probability p, 1/n vs liar payoff)")
    print("payoff matrix (requester / responder):")
    rows = {
        sel.value: [
            f"{matrix[sel, resp].requester!r} / {matrix[sel, resp].responder!r}"
            for resp in (game.Response.TRUTHFUL, game.Response.LYING)
        ]
        for sel in (game.Selection.BY_TRUST, game.Selection.RANDOM)
    }
    width = max(len(text) for cells in rows.values() for text in cells)
    width = max(width, len("truthful"), len("lying"))
    print(f"  {'':10s} {'truthful':>{width}s} | {'lying':>{width}s}")
    for label, cells in rows.items():
        print(f"  {label:10s} {cells[0]:>{width}s} | {cells[1]:>{width}s}")
    if result.profile is not None:
        sel, resp = result.profile
        outcome = f"({sel.value}, {resp.value})"
    else:
        outcome = (
            "tie — surviving strategies "
            f"{[s.value for s in result.requester]} x {[r.value for r in result.responder]}"
        )
    print(f"dominance outcome: {outcome}"
          "  (pure strategies of the matrix: the requester may always select by trust)")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    overrides = {
        key: getattr(args, f"set_{key}")
        for key in config_keys()
        if getattr(args, f"set_{key}") is not None
    }
    run = load_run_config(args.config, overrides)
    seeds = [run.sim.rng_seed] if args.seeds is None else _seed_list(args.seeds)

    def output(path: str | None, seed: int) -> str | None:
        if path is None:
            return None
        if not os.path.basename(path):  # ends with a separator: a directory
            raise IsADirectoryError(errno.EISDIR, "output path names a directory", path)
        return path if args.seeds is None else _with_seed_suffix(path, seed)

    runs = [(seed, output(run.metrics_csv, seed), output(run.trace_csv, seed)) for seed in seeds]
    # A bad output path fails here, before the first cycle, not after the runs.
    metrics_files = {os.path.realpath(metrics) for _, metrics, _ in runs}
    for _, _, trace in runs:
        if trace is not None and os.path.realpath(trace) in metrics_files:
            raise ConfigError("trace_csv", f"{trace!r} is also a metrics_csv output file")
    for path in {path for _, *paths in runs for path in paths if path is not None}:
        try:  # an error but a missing file (a name too long, no access) fails here
            if stat.S_ISDIR(os.stat(path).st_mode):
                raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        except FileNotFoundError:  # so os.path.isdir below hides no other error
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise FileNotFoundError(errno.ENOENT, "no such output directory", directory)

    for seed, metrics_path, trace_path in runs:
        sim_config = dataclasses.replace(run.sim, rng_seed=seed)
        if trace_path is not None:
            with open(trace_path, "w", newline="") as trace_fh:
                series = run_simulation(sim_config, event_sink=EventCsvSink(trace_fh))
        else:
            series = run_simulation(sim_config)
        series.write_csv(metrics_path)
        last = series.rows[-1]
        print(
            f"seed={seed} cycles={len(series)} wrote {metrics_path} | final averages: "
            f"good={_fmt(last.avg_trust_good)} bad={_fmt(last.avg_trust_bad)} "
            f"liar={_fmt(last.avg_trust_liar)} "
            f"newcomer_good={_fmt(last.avg_trust_newcomer_good)} "
            f"success_rate={_fmt(last.success_rate)} penalties={last.penalties}"
        )
    return EXIT_OK


def _seed_list(text: str) -> list[int]:
    """The ``--seeds`` list: distinct seeds, comma-separated."""
    seeds: list[int] = []
    for item in filter(None, map(str.strip, text.split(","))):
        try:
            seed = int(item)
        except ValueError:
            raise ConfigError("--seeds", f"{item!r} is not an integer") from None
        if not 0 <= seed < 2**64:
            raise ConfigError("--seeds", f"seed {seed} is outside [0, 2**64)")
        if seed in seeds:
            raise ConfigError("--seeds", f"seed {seed} is listed twice")
        seeds.append(seed)
    if not seeds:
        raise ConfigError("--seeds", "empty seed list")
    return seeds


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6f}"


def _with_seed_suffix(path: str, seed: int) -> str:
    """``out/metrics.csv`` -> ``out/metrics.seed1.csv``; only the file name
    changes, never the directory."""
    directory, name = os.path.split(path)
    stem, _, ext = name.rpartition(".")
    name = f"{stem}.seed{seed}.{ext}" if stem else f"{name}.seed{seed}"
    return os.path.join(directory, name)


def _cmd_oracle(args) -> int:
    inputs = [getattr(args, key) for key in args.inputs]
    expected = args.closed_form(*inputs)
    result = args.estimator(*inputs, args.trials, args.seed)
    ok = oracle.within_sigmas(expected, result, args.sigmas)
    print(
        f"{args.oracle_command}: closed_form={expected!r} mc_mean={result.mean!r} "
        f"std_error={result.std_error!r} trials={result.trials} "
        f"sigmas={args.sigmas:g} verdict={'PASS' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_plot(args) -> int:
    write_chart(args.csv, args.svg)
    print(f"wrote {args.svg}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
