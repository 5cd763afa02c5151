"""Command-line front end.

Commands: check-ce, plan, test, schedule, simulate. Exit codes: 0 for
success/accept, 1 for a domain negative (not an equilibrium / reject), 2 for
usage or validation errors. Outputs are deterministic for a fixed config and
seed; only the manifest carries a timestamp.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import schedule as sched
from . import sim, verifier
from .agents import Mode
from .errors import InvalidInputError, NonConvergenceError, check_int, check_keys, check_positive
from .errors import check_unit
from .games import (
    _checked_mixes,
    agent_incentive_violations,
    check_correlated_equilibrium,
    compose_deviation,
    load_game,
    load_strategy,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def cmd_check_ce(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    verdict = check_correlated_equilibrium(game, sigma, tolerance=args.tolerance)
    if verdict.is_equilibrium:
        print("correlated equilibrium: yes")
        return EXIT_OK
    print("correlated equilibrium: no")
    for v in verdict.violations:
        print(
            f"  agent {v.agent + 1}: at signal {v.signal} deviating to {v.deviation} "
            f"gains {v.gap:.6g}"
        )
    return EXIT_DOMAIN


def _check_mc_samples(args) -> None:
    """Refuse --mc-samples by its own name, not the library's mc_samples."""
    check_int(args.mc_samples, "--mc-samples", verifier.MIN_MC_SAMPLES)


def cmd_plan(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    check_unit(args.p, "--p")
    check_positive(args.delta_hat, "--delta-hat")
    _check_mc_samples(args)
    plan = verifier.plan_test(
        game, sigma, p=args.p, delta_hat=args.delta_hat,
        mc_samples=args.mc_samples, seed=args.seed,
    )
    text = json.dumps(plan.as_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write(Path(args.out) / "plan.json", text + "\n")
        _manifest(args, Path(args.out))
    return EXIT_OK


def _profile_agent(key: str, num_agents: int) -> int:
    """A deviation profile's 1-based agent key as an agent index; only the
    plain spelling is accepted, so two keys cannot name one agent."""
    if key not in [str(i) for i in range(1, num_agents + 1)]:
        raise InvalidInputError(
            f"--simulate-under: agent key {key!r} must be one of 1..{num_agents}")
    return int(key) - 1


def _simulated_counts(args, game, sigma, sample_size):
    rng = np.random.default_rng(args.seed)
    if args.simulate_under in (None, "mediator"):
        dist = sigma.probs
    else:
        with open(args.simulate_under) as fh:
            profile = json.load(fh)
        if not isinstance(profile, dict):
            raise InvalidInputError("--simulate-under profile must be a JSON object {agent: [probs]}")
        deviations = {_profile_agent(k, game.num_agents): v for k, v in profile.items()}
        dist = compose_deviation(sigma, game, _checked_mixes(game, deviations, first=1)).probs
    return rng.multinomial(sample_size, dist).astype(np.int64)


def cmd_test(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    check_int(args.agent, "--agent", 1, game.num_agents + 1)
    check_unit(args.p, "--p")  # alpha in counts mode, p in simulate mode
    check_positive(args.delta_hat, "--delta-hat")
    if args.counts:
        # the counts are the sample: size the test from them
        with open(args.counts) as fh:
            counts = json.load(fh)
        if not isinstance(counts, list):
            raise InvalidInputError("counts file must be a flat JSON array")
        # the counts become an int64 array: each entry and the total must fit one
        counts = [check_int(c, f"counts[{i}]", 0, 2**63) for i, c in enumerate(counts)]
        total = check_int(sum(counts), "total of counts", 0, 2**63)
        counts = np.asarray(counts, dtype=np.int64)
        plan = verifier.manual_plan(
            game, sigma, alpha=args.p, delta_hat=args.delta_hat, sample_size=total,
        )
    else:
        _check_mc_samples(args)
        plan = verifier.plan_test(
            game, sigma, p=args.p, delta_hat=args.delta_hat,
            mc_samples=args.mc_samples, seed=args.seed,
        )
        counts = _simulated_counts(args, game, sigma, plan.sample_size)
    mode = Mode.from_screen(agent_incentive_violations(game, sigma, args.agent - 1))
    # a screened agent never tests: it concludes without a verdict
    _, decision = mode.conclude(None if mode.rejected
                                else verifier.run_sampling_decision(plan, sigma, counts))
    out = {
        "outcome": decision.outcome.value,
        "statistic": decision.statistic,
        "p_value": decision.p_value,
        "critical_value": plan.critical_value,
        "sample_size": plan.sample_size,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    print("do not reject" if not decision.rejected else "reject")
    return EXIT_OK if not decision.rejected else EXIT_DOMAIN


_NUMBER = (int, float)
_REQUIRED = object()


def _typed(value, kind) -> bool:
    """Whether a JSON value has ``kind``: a type, a tuple of them, or [t] for a list of t."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_typed(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _entry(cfg: dict, key: str, where: str, kind, default=_REQUIRED):
    """cfg[key] if it has ``kind`` (a bool is no number), or ``default`` when absent."""
    if key not in cfg:
        if default is _REQUIRED:
            raise InvalidInputError(f"{where} lacks required key {key!r}")
        return default
    if not _typed(cfg[key], kind):
        raise InvalidInputError(f"{where} entry {key!r} has the wrong type: {cfg[key]!r}")
    return cfg[key]


def _schedule_from_config(game, sigma, cfg, mc_samples, seed):
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"schedule must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind", "harmonic")
    if kind == "toy":
        check_keys(cfg, ("kind", "alpha", "delta_hat", "test_lengths", "free_lengths"),
                   "toy schedule")
        return sched.toy_schedule(
            game, sigma,
            alpha=_entry(cfg, "alpha", "toy schedule", _NUMBER, 0.1),
            delta_hat=_entry(cfg, "delta_hat", "toy schedule", _NUMBER, 0.01),
            test_lengths=_entry(cfg, "test_lengths", "toy schedule", [int]),
            free_lengths=_entry(cfg, "free_lengths", "toy schedule", [int]),
        )
    if kind == "harmonic":
        check_keys(cfg, ("kind", "horizon_tests"), "harmonic schedule")
        rules = sched.harmonic_rules()
    elif kind == "geometric":
        check_keys(cfg, ("kind", "delta0", "p0", "delta_decay", "p_decay", "horizon_tests"),
                   "geometric schedule")
        # a decay the config leaves out takes geometric_rules' default
        rules = sched.geometric_rules(
            delta0=_entry(cfg, "delta0", "geometric schedule", _NUMBER),
            p0=_entry(cfg, "p0", "geometric schedule", _NUMBER),
            **{key: _entry(cfg, key, "geometric schedule", _NUMBER)
               for key in ("delta_decay", "p_decay") if key in cfg},
        )
    else:
        raise InvalidInputError(f"unknown schedule rule kind {kind!r}")
    return sched.build_schedule(
        game, sigma, rules,
        horizon_tests=_entry(cfg, "horizon_tests", "schedule", int, 3),
        mc_samples=mc_samples, seed=seed,
    )


def _schedule_rows(schedule: sched.Schedule):
    """One row per phase; csv blanks the plan columns a row lacks and a psi of None."""
    rows = []
    for ph in schedule.phases:
        row = {"kind": ph.kind.value, "j": ph.index, "begin": ph.begin, "length": ph.length}
        plan = schedule.plan_for(ph.index) if ph.kind is sched.PhaseKind.SAMPLING_TEST else None
        if plan is not None:
            row.update(delta=plan.delta_hat, p=plan.p_target, alpha=plan.alpha, beta=plan.beta,
                       psi=plan.psi, l_T=plan.sample_size)
        rows.append(row)
    return rows


def cmd_schedule(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    check_int(args.tests, "--tests", 1)
    _check_mc_samples(args)
    cfg = {"kind": args.rules, "horizon_tests": args.tests}
    if args.rules == "geometric":
        check_positive(args.delta0, "--delta0")
        check_unit(args.p0, "--p0")
        cfg.update(delta0=args.delta0, p0=args.p0)
    schedule = _schedule_from_config(game, sigma, cfg, args.mc_samples, args.seed)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, restval="", fieldnames=[
        "kind", "j", "begin", "length", "delta", "p", "alpha", "beta", "psi", "l_T"])
    writer.writeheader()
    writer.writerows(_schedule_rows(schedule))
    sys.stdout.write(buf.getvalue())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write(outdir / "schedule.csv", buf.getvalue())
        _manifest(args, outdir)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.seeds is not None:
        check_int(args.seeds, "--seeds", 1)
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidInputError("simulate config must be a JSON object")
    where = "simulate config"
    check_keys(cfg, ("game", "strategy", "seed", "mc_samples", "record", "schedule", "agents",
                     "rounds", "output_dir"), where)
    record = _entry(cfg, "record", where, str, "full")
    if record not in ("full", "counts"):
        raise InvalidInputError(
            f"{where} entry 'record' is neither 'full' nor 'counts': {record!r}")
    seed = args.seed if args.seed is not None else _entry(cfg, "seed", where, int, 0)
    # toy schedules never estimate psi, so the draws are checked here, each by its own name
    if args.mc_samples is not None:
        _check_mc_samples(args)
        mc_samples = args.mc_samples
    else:
        mc_samples = check_int(_entry(cfg, "mc_samples", where, int, verifier.DEFAULT_MC_SAMPLES),
                               f"{where} entry 'mc_samples'", verifier.MIN_MC_SAMPLES)
    verifier.check_draws(mc_samples, seed)
    game = load_game(_entry(cfg, "game", where, str))
    sigma = load_strategy(_entry(cfg, "strategy", where, str))
    schedule = _schedule_from_config(game, sigma, cfg.get("schedule", {}), mc_samples, seed)
    agent_configs = cfg.get("agents")
    rounds = cfg.get("rounds")
    outdir = Path(args.out or _entry(cfg, "output_dir", where, str, "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    if args.seeds is not None:
        # batch mode: independent generators per seed, order-free aggregation
        runs = sim.run_batch(game, sigma, schedule, agent_configs,
                             range(seed, seed + args.seeds), rounds=rounds)
        batch = sim.batch_summary_dict(runs)
        with open(outdir / "batch_summary.json", "w") as fh:
            json.dump(batch, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _manifest(args, outdir, cfg, seed)
        print(f"wrote {outdir}/batch_summary.json")
        return EXIT_OK
    if record == "counts":
        run = sim.run_game_counts(game, sigma, schedule, agent_configs, seed=seed, rounds=rounds)
    else:
        run = sim.run_game(game, sigma, schedule, agent_configs, seed=seed, rounds=rounds)
        sim.transcript_to_csv(run, outdir / "transcript.csv")
    sim.write_summary_json(run, outdir / "summary.json")
    _manifest(args, outdir, cfg, seed)
    print(f"wrote {outdir}/summary.json")
    return EXIT_OK


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:  # as given: a CSV keeps its CRLFs
        fh.write(text)


def _manifest(args, outdir: Path, config: dict | None = None, seed=None) -> None:
    """Write manifest.json: config hash (default: the parsed options), seed, timestamp."""
    if config is None:
        config = {k: v for k, v in vars(args).items() if k != "func"}
        seed = args.seed
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_common(p):
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument("--strategy", required=True, help="announced strategy JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=verifier.DEFAULT_MC_SAMPLES)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    each ``parse_args`` returns a fresh namespace, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="advicecheck",
        description="Verify a mediator's correlated-strategy advice statistically.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-ce", help="check the incentive constraints")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_check_ce)

    p = subs.add_parser("plan", help="derive a sampling-test plan")
    _add_common(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--p", type=float, required=True, help="target error probability")
    p.add_argument("--delta-hat", type=float, required=True, help="sensitivity threshold")
    p.set_defaults(func=cmd_plan)

    p = subs.add_parser("test", help="run one sampling decision on counts")
    _add_common(p)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--delta-hat", type=float, default=0.01)
    p.add_argument("--agent", type=int, default=1, help="1-based agent index")
    sample = p.add_mutually_exclusive_group()
    sample.add_argument("--counts", help="JSON array of observed counts")
    sample.add_argument(  # no default: the group lets through a value that is the default object
        "--simulate-under",
        help='"mediator" (the default) or a deviation-profile JSON file {agent: [probs]}',
    )
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("schedule", help="emit a repeated-testing phase table (CSV)")
    _add_common(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--rules", choices=["harmonic", "geometric"], default="harmonic")
    p.add_argument("--tests", type=int, default=3)
    p.add_argument("--delta0", type=float, default=1e-4)
    p.add_argument("--p0", type=float, default=0.1)
    p.set_defaults(func=cmd_schedule)

    p = subs.add_parser("simulate", help="run the repeated game from a config file")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None,
                   help="batch mode: run this many consecutive seeds, aggregate only")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--mc-samples", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NonConvergenceError) as exc:
        # InvalidInputError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
