"""The four benchmark workloads and the checks on their outputs.

Each workload is built from the seed (inputs generated, configs written),
warmed up once, then repeated: ``rep(r)`` is the timed fixed work, a list of
operations; ``check(r, ops)`` and ``finish()`` verify outputs outside the
timed region. Checks are invariants that hold whatever random stream the
program draws from, so a correct change keeps passing them.

Calls into the program go through module attributes (``sim.run_game_counts``,
``cli.main``) so the traced run sees them; checks use the originals bound at
import, so they never add to traced numbers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from advicecheck import chi2, cli, schedule, sim, verifier
from advicecheck.games import CorrelatedStrategy, Game

import inputs
from inputs import NON_CE, SMALL_COUNTS, SMALL_UTILITIES, WORKED_FALLBACK

_sample_size = chi2.sample_size
_cli_main = cli.main

PSI_TOLERANCE_SE = 5.0  # program psi vs reference psi, in combined standard errors
NO_WORSE_OFF = -0.05  # paired margin: verifying agents vs pure learning
FP = {"name": "fictitious-play"}
UNIFORM = {"name": "uniform"}
TRIGGER = {"name": "trigger", "initial_action": 0, "switch_action": 1,
           "watch_agent": 0, "watch_action": 1}


@dataclass
class Op:
    name: str
    output: object
    error: str | None
    seconds: float


def attempt(name, fn, *args) -> Op:
    """Run and time one operation; an exception is recorded as its failure."""
    t0 = perf_counter()
    try:
        output, error = fn(*args), None
    except Exception as exc:  # every failure counts against the op, not the run
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Op(name, output, error, perf_counter() - t0)


def quiet(fn, *args):
    """Call with the program's stdout/stderr chatter captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def exact_totals(counts) -> tuple[Fraction, ...]:
    """Exact utility totals of the small game for joint-action counts."""
    return tuple(
        sum((int(n) * Fraction(float(u)) for n, u in zip(counts, SMALL_UTILITIES[:, a])), Fraction(0))
        for a in range(SMALL_UTILITIES.shape[1])
    )


def layout(tests, frees):
    """(kind, j, begin, length) of a toy schedule's phases."""
    out, t = [], 1
    for j, (l_r, l_f) in enumerate(zip(tests, frees), start=1):
        out.append(("R", j, t, l_r))
        t += l_r
        if l_f:
            out.append(("F", j, t, l_f))
            t += l_f
    return out


class Workload:
    name = ""
    # (label, numerator metric, denominator metric, predicted share): the
    # traced run prints each share next to its prediction
    shares: list[tuple[str, str, str, float]] = []

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        workdir.mkdir(parents=True)
        self.rng = inputs.rng_for(seed, self.name)

    def warm_up(self) -> None:
        raise NotImplementedError

    def rep(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, r: int, ops: list[Op]) -> list[tuple[int, str]]:
        return []

    def finish(self) -> list[tuple[int, str]]:
        """Run-level checks, after every rep; failures mark the op in all reps."""
        return []

    def notes(self) -> list[dict]:
        return []


# --- plan -------------------------------------------------------------------


class Plan(Workload):
    """Time to a study plan: psi estimation against the sample-size solver."""

    name = "plan"
    WIDE = (3,) * 5  # 243 joint actions, 31 subsets
    MANY = (2,) * 7  # 128 joint actions, 127 subsets
    TESTS, DELTA0, P0, MC_WIDE = 3, 0.01, 0.1, 2000
    P_MANY, DELTA_MANY, MC_MANY = 0.3, 0.01, 1000
    REFERENCE_SAMPLES = 10_000
    shares = [
        ("estimate_psi / wall", "verifier.estimate_psi.s", "trace.wall_s", 0.95),
        ("sample_size / wall", "chi2.sample_size.s", "trace.wall_s", 0.05),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.shapes = []
        for counts in (self.WIDE, self.MANY):
            probs = inputs.near_product(self.rng, counts)
            game = Game(counts, inputs.random_utilities(self.rng, counts))
            self.shapes.append((counts, probs, game, CorrelatedStrategy(probs)))
        self.psi_seed = inputs.sub_seed(self.rng)
        self.rules = schedule.geometric_rules(self.DELTA0, self.P0)
        self.first = None

    def warm_up(self):
        probs = inputs.near_product(self.rng, SMALL_COUNTS)
        verifier.plan_test(Game(SMALL_COUNTS, SMALL_UTILITIES), CorrelatedStrategy(probs),
                           0.5, 1e-4, mc_samples=1000, seed=self.psi_seed)

    def rep(self, r):
        (_, _, g1, s1), (_, _, g2, s2) = self.shapes
        return [
            attempt("build_schedule 3^5", lambda: schedule.build_schedule(
                g1, s1, self.rules, self.TESTS, mc_samples=self.MC_WIDE, seed=self.psi_seed)),
            attempt("plan_test 2^7", lambda: verifier.plan_test(
                g2, s2, self.P_MANY, self.DELTA_MANY, mc_samples=self.MC_MANY, seed=self.psi_seed)),
        ]

    def check(self, r, ops):
        bad = []
        if self.first is None:
            self.first = [op.output for op in ops]
            sched = ops[0].output
            if sched is not None:
                bad += [(0, m) for m in self._check_schedule(sched)]
            if ops[1].output is not None:
                bad += [(1, m) for m in self._check_plan(ops[1].output, self.shapes[1][1])]
        else:
            bad += [(i, "output differs from rep 0 on identical inputs")
                    for i, op in enumerate(ops) if op.output != self.first[i]]
        return bad

    def _check_schedule(self, sched):
        phases = [(ph.kind.value, ph.index, ph.begin, ph.length) for ph in sched.phases]
        sizes = [plan.sample_size for plan in sched.plans]
        if phases != layout(sizes, [n * n for n in sizes]) or len(sizes) != self.TESTS:
            return [f"schedule does not tile R_j, F_j = l_T, l_T^2: {phases}"]
        bad = []
        for j, plan in enumerate(sched.plans, start=1):
            p_j, d_j = self.P0 / 2 ** (j - 1), self.DELTA0 / 16 ** (j - 1)
            if not (math.isclose(plan.p_target, p_j) and math.isclose(plan.delta_hat, d_j)):
                bad.append(f"test {j} does not follow the geometric rules")
            bad += self._check_plan(plan, self.shapes[0][1])
        return bad

    @staticmethod
    def _check_plan(plan, probs):
        df = probs.size - 1 - int(np.count_nonzero(probs == 0))
        if plan.df_total != df or plan.alpha != plan.p_target or not 0 <= plan.psi < plan.p_target:
            return [f"plan fields inconsistent: {plan.as_dict()}"]
        beta = (plan.p_target - plan.psi) / (1 - plan.psi)
        if not math.isclose(plan.beta, beta, rel_tol=1e-12):
            return [f"beta {plan.beta} != (p - psi)/(1 - psi) = {beta}"]
        expect = _sample_size(plan.alpha, plan.beta, plan.delta_hat, df)
        if plan.sample_size != expect:
            return [f"sample_size {plan.sample_size} != chi2.sample_size(...) = {expect}"]
        return []

    def finish(self):
        plans = []
        if self.first[0] is not None:
            plans += [(0, self.shapes[0], plan) for plan in self.first[0].plans]
        if self.first[1] is not None:
            plans.append((1, self.shapes[1], self.first[1]))
        bad = []
        for op, (counts, probs, _, _), plan in plans:
            ref, ref_se = inputs.reference_psi(counts, probs, plan.delta_hat,
                                               self.REFERENCE_SAMPLES, self.psi_seed)
            if abs(plan.psi - ref) > PSI_TOLERANCE_SE * math.hypot(plan.psi_se, ref_se) + 1e-12:
                bad.append((op, f"psi {plan.psi} (se {plan.psi_se}) vs reference {ref} (se {ref_se})"))
        return bad


# --- learn ------------------------------------------------------------------


class Learn(Workload):
    """Paired runs: verification loop vs pure learning, stepped round by round."""

    name = "learn"
    TEST, FREE = 120, 11_880  # the test is 1% of the horizon
    PAIRS = {"fp-fp": [FP, FP], "fp-uniform": [FP, UNIFORM]}
    shares = [
        ("stepped rounds / rounds", "sim.rounds_stepped", "sim.rounds", 0.995),
        ("agent steps / wall", "agents.s", "trace.wall_s", 0.51),
        ("run_game_counts / wall", "sim.run_game_counts.s", "trace.wall_s", 0.53),
        ("run_pure_learning / wall", "sim.run_pure_learning.s", "trace.wall_s", 0.47),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.game = Game(SMALL_COUNTS, SMALL_UTILITIES)
        self.sigma = CorrelatedStrategy(NON_CE)
        self.schedule = schedule.toy_schedule(self.game, self.sigma, 0.1, 0.01, [self.TEST], [self.FREE])
        self.base = inputs.sub_seed(self.rng)
        self.fp_fp = None

    def warm_up(self):
        short = schedule.toy_schedule(self.game, self.sigma, 0.1, 0.01, [100], [900])
        for specs in self.PAIRS.values():
            self._verify(specs, self.base, short)
            self._alone(specs, self.base, short.horizon)

    def _verify(self, specs, seed, sched):
        configs = [{"learner": specs[0]}, {"learner": specs[1], "fallback": WORKED_FALLBACK}]
        run = sim.run_game_counts(self.game, self.sigma, sched, configs, seed=seed)
        return run, sim.build_ledger(run)

    def _alone(self, specs, seed, rounds):
        return sim.run_pure_learning(self.game, specs, rounds=rounds, seed=seed)

    def rep(self, r):
        seed = self.base + r
        ops = []
        for name, specs in self.PAIRS.items():
            ops.append(attempt(f"{name} verify", self._verify, specs, seed, self.schedule))
            ops.append(attempt(f"{name} alone", self._alone, specs, seed, self.schedule.horizon))
        return ops

    def check(self, r, ops):
        bad = []
        for i in range(0, len(ops), 2):
            verify, alone = ops[i].output, ops[i + 1].output
            if verify is None or alone is None:
                continue
            run, ledger = verify
            msg = self._check_run(run, ledger)
            if msg:
                bad.append((i, msg))
            if int(alone.counts.sum()) != self.schedule.horizon or \
                    alone.utility_totals != exact_totals(alone.counts):
                bad.append((i + 1, "pure-learning counts or totals inconsistent"))
            if msg or not ops[i].name.startswith("fp-fp"):
                continue
            # after the test both agents play point masses: no randomness is consumed,
            # and the paired comparison is the deterministic no-worse-off claim
            seen = (run.phase_results[-1].counts.tolist(), alone.counts.tolist())
            self.fp_fp = self.fp_fp or seen
            if seen != self.fp_fp:
                bad.append((i, f"fp-fp counts differ across seeds: {seen} vs {self.fp_fp}"))
            horizon = self.schedule.horizon
            margins = [float((sum(seg.totals[a] for seg in ledger.segments) - alone.utility_totals[a]) / horizon)
                       for a in range(2)]
            if min(margins) < NO_WORSE_OFF:
                bad.append((i, f"no-worse-off margin {margins} below {NO_WORSE_OFF}"))
        return bad

    def _check_run(self, run, ledger):
        phases = [(pr.phase.kind.value, pr.phase.index, pr.phase.begin, pr.rounds_run)
                  for pr in run.phase_results]
        if phases != layout([self.TEST], [self.FREE]):
            return f"phases {phases}"
        if any(int(pr.counts.sum()) != pr.rounds_run for pr in run.phase_results):
            return "phase counts do not sum to phase lengths"
        if [(seg.kind, seg.index, seg.begin, seg.length) for seg in ledger.segments] != phases:
            return "ledger segments do not match the phases"
        if any(seg.totals != exact_totals(pr.counts) for seg, pr in zip(ledger.segments, run.phase_results)):
            return "ledger totals differ from counts x utilities"
        return None


# --- record -----------------------------------------------------------------


class Record(Workload):
    """CLI simulate with a full transcript: engine, Fraction ledger, CSV."""

    name = "record"
    CONFIGS = {
        # CE followers; alpha 1e-6 keeps them following, so the work is fixed
        "ce": ([240, 360], [3_600, 7_800], 1e-6, [UNIFORM, UNIFORM], None),
        # agent 2 is screened out (non-CE); fictitious play vs trigger in free periods
        "non-ce": ([125, 125], [2_875, 2_875], 0.1, [FP, TRIGGER], WORKED_FALLBACK),
    }
    shares = [
        ("run_game / wall", "sim.run_game.s", "trace.wall_s", 0.50),
        ("build_ledger / wall", "sim.build_ledger.s", "trace.wall_s", 0.33),
        ("transcript_to_csv / wall", "sim.transcript_to_csv.s", "trace.wall_s", 0.10),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        game = inputs.write_game(workdir / "game.json", SMALL_COUNTS, SMALL_UTILITIES)
        self.runs = {}
        for name, (tests, frees, alpha, learners, fallback) in self.CONFIGS.items():
            probs = inputs.random_ce(self.rng) if name == "ce" else NON_CE
            agents = [{"learner": spec} for spec in learners]
            agents[1]["fallback"] = fallback
            cfg = {
                "game": str(game),
                "strategy": str(inputs.write_json(workdir / f"{name}.strategy.json", probs.tolist())),
                "seed": inputs.sub_seed(self.rng),
                "record": "full",
                "agents": agents,
                "schedule": {"kind": "toy", "alpha": alpha, "delta_hat": 0.01,
                             "test_lengths": tests, "free_lengths": frees},
            }
            path = inputs.write_json(workdir / f"{name}.json", cfg)
            self.runs[name] = (path, workdir / f"out-{name}", probs, layout(tests, frees))
        self.digests = {}

    def warm_up(self):
        cfg = json.loads(self.runs["ce"][0].read_text())
        cfg["schedule"].update(test_lengths=[100], free_lengths=[400])
        path = inputs.write_json(self.dir / "warm.json", cfg)
        quiet(cli.main, ["simulate", "--config", str(path), "--out", str(self.dir / "out-warm")])

    def rep(self, r):
        return [attempt(name, quiet, lambda p, o: cli.main(["simulate", "--config", str(p), "--out", str(o)]),
                        path, out)
                for name, (path, out, _, _) in self.runs.items()]

    def check(self, r, ops):
        bad = []
        for i, op in enumerate(ops):
            if op.error:
                continue
            _, out, probs, phases = self.runs[op.name]
            if op.output != 0:
                bad.append((i, f"exit code {op.output}"))
                continue
            files = [out / "transcript.csv", out / "summary.json"]
            if op.name not in self.digests:
                msg = self._check_run(out, probs, phases)
                if msg:
                    bad.append((i, msg))
                    continue
                self.digests[op.name] = digest(*files)
            elif digest(*files) != self.digests[op.name]:
                bad.append((i, "outputs differ from rep 0 on identical inputs"))
        return bad

    @staticmethod
    def _check_run(out, probs, phases):
        if not (out / "manifest.json").is_file():
            return "manifest.json missing"
        summary = json.loads((out / "summary.json").read_text())
        rows = [(p["phase"], p["j"], p["begin"], p["length"]) for p in summary["phases"]]
        if rows != phases:
            return f"summary phases {rows} != schedule {phases}"
        tests = [j for kind, j, _, _ in phases if kind == "R"]
        decisions = summary["decisions"]
        if sorted(decisions) != sorted(f"agent{a + 1}.test{j}" for a in range(2) for j in tests):
            return f"decision keys {sorted(decisions)}"
        screened = [g > 1e-9 for g in inputs.incentive_gaps(SMALL_COUNTS, SMALL_UTILITIES, probs)]
        if any(decisions[f"agent{a + 1}.test{j}"]["outcome"] != "RejectByEq2"
               for a in range(2) if screened[a] for j in tests):
            return "an agent failing its incentive check was not screened out"
        # who follows in each phase: R_1 by the incentive screen, F_j and
        # R_{j+1} by test j's decision
        follows, following = {}, [not s for s in screened]
        for kind, j, _, _ in phases:
            if kind == "F" or j > 1:
                prior = j if kind == "F" else j - 1
                following = [decisions[f"agent{a + 1}.test{prior}"]["outcome"] == "FollowMediator"
                             for a in range(2)]
            follows[(kind, j)] = following
        bounds = {(kind, j): (begin, begin + length - 1) for kind, j, begin, length in phases}
        horizon = phases[-1][2] + phases[-1][3] - 1
        t = 0
        with open(out / "transcript.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for t, row in enumerate(reader, start=1):
                key = (row[1], int(row[2]))
                signals, actions = row[3:5], row[5:7]
                first, last = bounds.get(key, (0, -1))
                if int(row[0]) != t or not first <= t <= last:
                    return f"row {t}: wrong round or phase {row[:3]}"
                if any(f and s != a for f, s, a in zip(follows[key], signals, actions)):
                    return f"row {t}: a following agent ignored its signal"
                joint = int(actions[0]) * SMALL_COUNTS[1] + int(actions[1])
                if [float(u) for u in row[7:9]] != SMALL_UTILITIES[joint].tolist():
                    return f"row {t}: utilities do not match the game table"
        if t != horizon:
            return f"{t} transcript rows for a horizon of {horizon}"
        return None


# --- longrun ----------------------------------------------------------------


class Longrun(Workload):
    """Batch simulate over astronomically long phases: chi2 numerics dominate."""

    name = "longrun"
    # noncentrality = length x delta_hat, up to 1.5e6
    TESTS = (10**5, 10**6, 10**7, 7 * 10**7, 15 * 10**7)
    DEFECT_TEST = 10**8  # noncentral_chi2_cdf's internal assert fails at ncp 1e6
    FREE, SEEDS = 10**18, 50
    shares = [
        ("noncentral_cdf / wall", "chi2.noncentral_cdf.s", "trace.wall_s", 0.78),
        ("run_game_counts / wall", "sim.run_game_counts.s", "trace.wall_s", 0.19),
        ("cli.main self / wall", "cli.main.self_s", "trace.wall_s", 0.02),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.game = inputs.write_game(workdir / "game.json", SMALL_COUNTS, SMALL_UTILITIES)
        self.strategy = inputs.write_json(workdir / "strategy.json", self.rng.dirichlet(np.ones(4)).tolist())
        self.first_seed = inputs.sub_seed(self.rng)
        self.configs = {length: self._config(length) for length in self.TESTS}
        self.digests = {}
        self.defect = None

    def _config(self, test_length, seeds=SEEDS):
        cfg = {
            "game": str(self.game),
            "strategy": str(self.strategy),
            "seed": self.first_seed,
            "record": "counts",
            "agents": [{"learner": UNIFORM}, {"learner": UNIFORM}],
            "schedule": {"kind": "toy", "alpha": 0.1, "delta_hat": 0.01,
                         "test_lengths": [test_length], "free_lengths": [self.FREE]},
        }
        path = inputs.write_json(self.dir / f"test-{test_length}.json", cfg)
        return path, self.dir / f"out-{test_length}", seeds

    def _simulate(self, main, path, out, seeds):
        """One batch simulate, keeping the runs the CLI aggregates for the checks."""
        captured = []
        aggregate = sim.batch_summary_dict

        def capture(runs):
            captured.append(runs)
            return aggregate(runs)

        sim.batch_summary_dict = capture
        try:
            code = quiet(main, ["simulate", "--config", str(path), "--out", str(out), "--seeds", str(seeds)])
        finally:
            sim.batch_summary_dict = aggregate
        return code, captured

    def warm_up(self):
        self._simulate(cli.main, *self._config(self.TESTS[0], seeds=5))

    def rep(self, r):
        return [attempt(f"test {length:.0e}", lambda c: self._simulate(cli.main, *c), self.configs[length])
                for length in self.TESTS]

    def check(self, r, ops):
        bad = []
        for i, (op, length) in enumerate(zip(ops, self.TESTS)):
            if op.error:
                continue
            _, out, _ = self.configs[length]
            msg = self._check_batch(length, out, *op.output)
            if msg is None and digest(out / "batch_summary.json") != self.digests.setdefault(
                    length, digest(out / "batch_summary.json")):
                msg = "batch summary differs from rep 0 on identical inputs"
            if msg:
                bad.append((i, msg))
        return bad

    def _check_batch(self, length, out, code, captured):
        if code != 0 or len(captured) != 1 or len(captured[0]) != self.SEEDS:
            return f"exit code {code}, {len(captured)} aggregates"
        phases = layout([length], [self.FREE])
        for run in captured[0]:
            got = [(pr.phase.kind.value, pr.phase.index, pr.phase.begin, pr.rounds_run)
                   for pr in run.phase_results]
            if got != phases:
                return f"seed {run.seed}: phases {got}"
            if any(sum(int(c) for c in pr.counts) != pr.rounds_run for pr in run.phase_results):
                return f"seed {run.seed}: counts do not sum to phase lengths"
            if sorted(run.decisions) != [(0, 1), (1, 1)]:
                return f"seed {run.seed}: decisions {sorted(run.decisions)}"
        batch = json.loads((out / "batch_summary.json").read_text())
        tallies = batch["decision_tallies"]
        if sorted(tallies) != ["agent1.test1", "agent2.test1"]:
            return f"tally keys {sorted(tallies)} do not match the completed test"
        if any(sum(t.values()) != self.SEEDS for t in tallies.values()):
            return "tallies do not count every seed"
        if batch["seeds"] != list(range(self.first_seed, self.first_seed + self.SEEDS)):
            return "batch seeds are not the consecutive seeds asked for"
        return None

    def finish(self):
        # the known defect runs once, untimed and outside the op counts
        path, out, _ = self._config(self.DEFECT_TEST, seeds=1)
        probe = attempt("probe", self._simulate, _cli_main, path, out, 1)
        self.defect = probe.error.split(":")[0] if probe.error else "ok"
        return []

    def notes(self):
        return [{"known_defect": {"op": f"simulate, {self.DEFECT_TEST:.0e}-round test",
                                  "expected": "AssertionError", "observed": self.defect}}]


WORKLOADS = {w.name: w for w in (Plan, Learn, Record, Longrun)}
