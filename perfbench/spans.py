"""Spans and counters around trustsim's public calls, for the traced run.

The tracer replaces public functions and methods of the package with
wrappers while it is installed and puts the originals back afterwards; no
code of the package changes.  A span's calls and time are kept per
(parent span, span) pair, so that a layer's self time is its time minus
the time of the spans it called.  Only totals are kept in memory: a desk
unit makes about ten million draws, too many to keep one span each.

``Stream.next_u64`` and ``Stream.random`` are counted, never timed, and
only by a tracer made with ``count_draws=True``: a counter costs more than
the draw it counts, and its cost lands in the self time of whichever span
made the draw.  So a traced run times its spans in one unit and counts its
draws in another.
"""

from __future__ import annotations

import time
from collections import Counter

from trustsim import engine, ledger, oracle, rng, runconfig

ROOT_SPAN = "run"


class Tracer:
    def __init__(self, count_draws: bool = False):
        self.count_draws = count_draws
        self.stack = [ROOT_SPAN]
        self.calls: Counter = Counter()  # (parent, span) -> calls
        self.ns: Counter = Counter()  # (parent, span) -> nanoseconds
        self.counts: Counter = Counter()  # events seen in arguments and results
        self._saved: list[tuple[object, str, object]] = []

    # -- queries ---------------------------------------------------------

    def total_calls(self, span: str, parents: tuple[str, ...] | None = None) -> int:
        """Calls of ``span``, made from any parent or from ``parents`` only."""
        return _total(self.calls, span, parents)

    def total_ns(self, span: str, parents: tuple[str, ...] | None = None) -> int:
        return _total(self.ns, span, parents)

    def self_ns(self, span: str) -> int:
        """Time in ``span`` minus the time of the spans it called."""
        children = sum(n for (parent, _), n in self.ns.items() if parent == span)
        return self.total_ns(span) - children

    # -- wrappers --------------------------------------------------------

    def _timed(self, span: str, fn, after=None):
        stack, calls, ns, clock = self.stack, self.calls, self.ns, time.perf_counter_ns

        def timed(*args, **kwargs):
            key = (stack[-1], span)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns[key] += clock() - start
                calls[key] += 1
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return timed

    def _counted(self, span: str, fn):
        stack, calls = self.stack, self.calls

        def counted(*args):
            calls[(stack[-1], span)] += 1
            return fn(*args)

        return counted

    def _after_round(self, record, _args) -> None:
        self.counts["gate." + record.gate.value] += 1
        self.counts["volunteers"] += len(record.volunteer_ids)

    def _after_penalize(self, new_value, args) -> None:
        if new_value == args[0].config.floor:
            self.counts["penalties_clamped"] += 1

    def _count_trials(self, span: str):
        def after(result, _args) -> None:
            self.counts["trials." + span] += result.trials

        return after

    def _counting_credit_many(self, fn):
        counts = self.counts

        def credit_many(ledger_, peer_ids, *rest, **kwargs):
            # The engine passes generators that only filter a list, so
            # materializing them first changes no result.
            ids = list(peer_ids)
            counts["credit_many_ids"] += len(ids)
            return fn(ledger_, ids, *rest, **kwargs)

        return credit_many

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        Stream = rng.Stream
        timed, patch = self._timed, self._patch
        patch(Stream, "from_path", staticmethod(timed("rng.from_path", Stream.from_path)))
        if self.count_draws:
            patch(Stream, "next_u64", self._counted("rng.next_u64", Stream.next_u64))
            patch(Stream, "random", self._counted("rng.random", Stream.random))
        patch(engine, "hypergeom_cdf", timed("rng.hypergeom_cdf", engine.hypergeom_cdf))
        patch(engine, "build_population",
              timed("engine.build_population", engine.build_population))
        patch(engine, "select_server", timed("engine.select_server", engine.select_server))
        patch(engine.Population, "add_peer",
              timed("engine.add_peer", engine.Population.add_peer))
        patch(engine.Simulation, "run_cycle",
              timed("engine.run_cycle", engine.Simulation.run_cycle))
        patch(engine.Simulation, "run_round",
              timed("engine.run_round", engine.Simulation.run_round, after=self._after_round))
        patch(engine.MetricsSeries, "write_csv",
              timed("engine.write_csv", engine.MetricsSeries.write_csv))
        patch(ledger.TrustLedger, "credit", timed("ledger.credit", ledger.TrustLedger.credit))
        patch(ledger.TrustLedger, "credit_many",
              timed("ledger.credit_many",
                    self._counting_credit_many(ledger.TrustLedger.credit_many)))
        patch(ledger.TrustLedger, "penalize",
              timed("ledger.penalize", ledger.TrustLedger.penalize,
                    after=self._after_penalize))
        patch(ledger.EventCsvSink, "__call__",
              timed("ledger.sink", ledger.EventCsvSink.__call__))
        patch(runconfig, "load_run_config",
              timed("runconfig.load_run_config", runconfig.load_run_config))
        for name in ("mc_liar_payoff", "mc_escape_frequency"):
            span = "oracle." + name
            patch(oracle, name, timed(span, getattr(oracle, name), after=self._count_trials(span)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _total(by_pair: Counter, span: str, parents: tuple[str, ...] | None) -> int:
    return sum(
        n for (parent, name), n in by_pair.items()
        if name == span and (parents is None or parent in parents)
    )
