"""Per-layer tracing from outside the program.

The traced run wraps each layer's public functions where their callers look
them up (module attributes such as ``sim.agent_act`` or ``chi2.sample_size``),
so no source under ``src/`` changes. Coarse calls record spans with a parent
link; per-round calls (agent steps, decisions, incentive checks) only add to a
call count and a time total. Spans are kept in memory and reduced into the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from time import perf_counter

from advicecheck import chi2, cli, schedule, sim, verifier

# (span name, [(module, attribute), ...]): every place a caller looks it up
SPANS = [
    ("cli.main", [(cli, "main")]),
    ("schedule.build_schedule", [(schedule, "build_schedule")]),
    ("schedule.toy_schedule", [(schedule, "toy_schedule")]),
    ("verifier.plan_test", [(verifier, "plan_test"), (schedule, "plan_test")]),
    ("verifier.manual_plan", [(verifier, "manual_plan"), (schedule, "manual_plan")]),
    ("chi2.sample_size", [(chi2, "sample_size")]),
    ("chi2.quantile", [(chi2, "chi2_quantile")]),
    ("chi2.noncentral_cdf", [(chi2, "noncentral_chi2_cdf")]),
    ("sim.build_ledger", [(sim, "build_ledger")]),
    ("sim.transcript_to_csv", [(sim, "transcript_to_csv")]),
    ("sim.summary", [(sim, "write_summary_json")]),
    ("sim.batch_summary", [(sim, "batch_summary_dict")]),
]
# runners: spans that also count simulated rounds and rounds stepped one at a time
RUNNERS = ["run_game", "run_game_counts", "run_pure_learning"]
# per-call totals only, no spans
TALLIES = [
    ("agents", [(sim, "agent_act"), (sim, "sample_strategy")]),
    ("verifier.decision", [(sim, "run_sampling_decision")]),
    ("games.incentive_check", [(sim, "agent_incentive_violations"),
                               (verifier, "agent_incentive_violations")]),
    ("games.compose_deviation", [(sim, "compose_deviation"), (cli, "compose_deviation")]),
    ("chi2.cdf", [(chi2, "chi2_cdf")]),
]

# every metric the traced run reports, in BENCHMARK.json's order
PER_LAYER = [
    ("games.compose_deviation.calls", "count", "lower"),
    ("games.compose_deviation.s", "s", "lower"),
    ("games.incentive_check.calls", "count", "lower"),
    ("games.incentive_check.s", "s", "lower"),
    ("chi2.noncentral_cdf.calls", "count", "lower"),
    ("chi2.noncentral_cdf.s", "s", "lower"),
    ("chi2.quantile.calls", "count", "lower"),
    ("chi2.quantile.s", "s", "lower"),
    ("chi2.sample_size.s", "s", "lower"),
    ("chi2.cdf.calls", "count", "lower"),
    ("verifier.estimate_psi.calls", "count", "lower"),
    ("verifier.estimate_psi.s", "s", "lower"),
    ("verifier.psi_draws", "count", "higher"),
    ("verifier.psi_draws_per_s", "1/s", "higher"),
    ("verifier.estimate_psi.peak_mib", "MiB", "lower"),
    ("verifier.plan_test.self_s", "s", "lower"),
    ("verifier.manual_plan.s", "s", "lower"),
    ("verifier.decision.calls", "count", "lower"),
    ("verifier.decision.s", "s", "lower"),
    ("schedule.build_schedule.self_s", "s", "lower"),
    ("schedule.toy_schedule.s", "s", "lower"),
    ("agents.steps", "count", "lower"),
    ("agents.s", "s", "lower"),
    ("sim.rounds", "count", "higher"),
    ("sim.rounds_stepped", "count", "lower"),
    ("sim.bulk_share", "ratio", "higher"),
    ("sim.run_game_counts.s", "s", "lower"),
    ("sim.run_pure_learning.s", "s", "lower"),
    ("sim.run_game.s", "s", "lower"),
    ("sim.transcript_rows", "count", "higher"),
    ("sim.build_ledger.s", "s", "lower"),
    ("sim.transcript_to_csv.s", "s", "lower"),
    ("sim.summary.s", "s", "lower"),
    ("sim.batch_summary.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
]


class Tracer:
    """Installs the wrappers, records spans and totals, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.tallies = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.values = defaultdict(float)
        self._saved: list[tuple] = []
        self._largest_psi = None  # (mc_samples x joint actions, function, args, kwargs)

    def __enter__(self):
        for name, sites in SPANS:
            self._patch(sites, self._span(name, getattr(*sites[0])))
        for name in RUNNERS:
            self._patch([(sim, name)], self._runner(name, getattr(sim, name)))
        self._patch([(verifier, "estimate_psi")], self._psi(verifier.estimate_psi))
        for name, sites in TALLIES:
            cell = self.tallies[name]
            for site in sites:
                self._patch([site], self._tally(cell, getattr(*site)))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, sites, wrapper):
        for module, attr in sites:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _tally(self, cell, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - t0
                cell[0] += 1

        return wrapper

    def _runner(self, name, fn):
        timed = self._span(f"sim.{name}", fn)
        steps = self.tallies["agents"]
        values = self.values

        def wrapper(game, *args, **kwargs):
            before = steps[0]
            result = timed(game, *args, **kwargs)
            # every stepped round calls agent_act (or sample_strategy) once per agent
            values["sim.rounds_stepped"] += (steps[0] - before) / game.num_agents
            if isinstance(result, sim.Transcript):
                values["sim.rounds"] += result.num_rounds
                values["sim.transcript_rows"] += result.num_rounds
            elif isinstance(result, sim.RunSummary):
                values["sim.rounds"] += sum(pr.rounds_run for pr in result.phase_results)
            else:
                values["sim.rounds"] += result.rounds
            return result

        return wrapper

    def _psi(self, fn):
        timed = self._span("verifier.estimate_psi", fn)
        values = self.values

        def wrapper(game, *args, **kwargs):
            result = timed(game, *args, **kwargs)
            values["verifier.psi_draws"] += result.mc_samples * len(result.per_subset)
            size = result.mc_samples * game.num_joint_actions
            if self._largest_psi is None or size > self._largest_psi[0]:
                self._largest_psi = (size, fn, (game, *args), kwargs)
            return result

        return wrapper

    def psi_peak_mib(self) -> float:
        """Peak traced memory of the run's largest estimate_psi call.

        The call is replayed once under tracemalloc after timing ends, so
        tracemalloc's cost stays out of every timed number.
        """
        if self._largest_psi is None:
            return 0.0
        _, fn, args, kwargs = self._largest_psi
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics per repetition of the workload's fixed work."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[i]
            calls[name] += 1
        v = self.values
        t = self.tallies
        rounds = v["sim.rounds"]
        out = {
            "games.compose_deviation.calls": t["games.compose_deviation"][0],
            "games.compose_deviation.s": t["games.compose_deviation"][1],
            "games.incentive_check.calls": t["games.incentive_check"][0],
            "games.incentive_check.s": t["games.incentive_check"][1],
            "chi2.noncentral_cdf.calls": calls["chi2.noncentral_cdf"],
            "chi2.noncentral_cdf.s": total["chi2.noncentral_cdf"],
            "chi2.quantile.calls": calls["chi2.quantile"],
            "chi2.quantile.s": total["chi2.quantile"],
            "chi2.sample_size.s": total["chi2.sample_size"],
            "chi2.cdf.calls": t["chi2.cdf"][0],
            "verifier.estimate_psi.calls": calls["verifier.estimate_psi"],
            "verifier.estimate_psi.s": total["verifier.estimate_psi"],
            "verifier.psi_draws": v["verifier.psi_draws"],
            "verifier.plan_test.self_s": own["verifier.plan_test"],
            "verifier.manual_plan.s": total["verifier.manual_plan"],
            "verifier.decision.calls": t["verifier.decision"][0],
            "verifier.decision.s": t["verifier.decision"][1],
            "schedule.build_schedule.self_s": own["schedule.build_schedule"],
            "schedule.toy_schedule.s": total["schedule.toy_schedule"],
            "agents.steps": t["agents"][0],
            "agents.s": t["agents"][1],
            "sim.rounds": rounds,
            "sim.rounds_stepped": v["sim.rounds_stepped"],
            "sim.run_game_counts.s": total["sim.run_game_counts"],
            "sim.run_pure_learning.s": total["sim.run_pure_learning"],
            "sim.run_game.s": total["sim.run_game"],
            "sim.transcript_rows": v["sim.transcript_rows"],
            "sim.build_ledger.s": total["sim.build_ledger"],
            "sim.transcript_to_csv.s": total["sim.transcript_to_csv"],
            "sim.summary.s": total["sim.summary"],
            "sim.batch_summary.s": total["sim.batch_summary"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": own["cli.main"],
        }
        out = {k: x / reps for k, x in out.items()}
        psi_s = total["verifier.estimate_psi"]
        out["verifier.psi_draws_per_s"] = v["verifier.psi_draws"] / psi_s if psi_s else 0.0
        out["verifier.estimate_psi.peak_mib"] = self.psi_peak_mib()
        out["sim.bulk_share"] = (rounds - v["sim.rounds_stepped"]) / rounds if rounds else 0.0
        return out
