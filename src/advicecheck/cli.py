"""Command-line front end.

Commands: check-ce, plan, test, schedule, simulate. Exit codes: 0 for
success/accept, 1 for a domain negative (not an equilibrium / reject), 2 for
usage or validation errors, each reported on one line. The CLI keeps no input
rule of its own: each range-checked flag gets its ``errors`` rule under the
flag's name (``_FLAGS``) before any command runs, also on a path that does not
read it, and a config number goes as it is to the library call that reads it,
which names its argument. Outputs are deterministic for a fixed config and
seed; only the manifest carries a timestamp. Every file except the streamed
transcript goes through ``sim._write``, every JSON text through ``sim._json``,
and every JSON input through ``games._read_json``, which refuses a file that
is not JSON naming the file.
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
from .errors import check_real, check_unit
from .games import (
    _checked_mixes,
    _read_json,
    agent_incentive_violations,
    check_correlated_equilibrium,
    compose_deviation,
    load_game,
    load_strategy,
)
from .sim import _json, _write

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


def cmd_plan(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    plan = verifier.plan_test(
        game, sigma, p=args.p, delta_hat=args.delta_hat,
        mc_samples=args.mc_samples, seed=args.seed,
    )
    _emit(args, "plan.json", _json(plan.as_dict()))
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
        profile = _read_json(args.simulate_under, dict,
                             "--simulate-under profile must be a JSON object {agent: [probs]}")
        deviations = {_profile_agent(k, game.num_agents): v for k, v in profile.items()}
        dist = compose_deviation(sigma, game, _checked_mixes(game, deviations, first=1)).probs
    return rng.multinomial(sample_size, dist).astype(np.int64)


def cmd_test(args) -> int:
    game, sigma = load_game(args.game), load_strategy(args.strategy)
    check_int(args.agent, "--agent", 1, game.num_agents + 1)
    if args.counts:
        # the counts are the sample: size the test from them
        counts = _read_json(args.counts, list, "counts file must be a flat JSON array")
        # the counts become an int64 array: each entry and the total must fit one
        counts = [check_int(c, f"counts[{i}]", 0, 2**63) for i, c in enumerate(counts)]
        total = check_int(sum(counts), "total of counts", 1, 2**63)
        counts = np.asarray(counts, dtype=np.int64)
        plan = verifier.manual_plan(  # --p is alpha here
            game, sigma, alpha=args.p, delta_hat=args.delta_hat, sample_size=total,
        )
    else:
        plan = verifier.plan_test(
            game, sigma, p=args.p, delta_hat=args.delta_hat,
            mc_samples=args.mc_samples, seed=args.seed,
        )
        counts = _simulated_counts(args, game, sigma, plan.sample_size)
    mode = Mode.from_screen(agent_incentive_violations(game, sigma, args.agent - 1))
    # a screened agent never tests: it concludes without a verdict
    _, decision = mode.conclude(None if mode.rejected
                                else verifier.run_sampling_decision(plan, sigma, counts))
    sys.stdout.write(_json({**decision.as_dict(), "critical_value": plan.critical_value,
                            "sample_size": plan.sample_size}))
    print("do not reject" if not decision.rejected else "reject")
    return EXIT_OK if not decision.rejected else EXIT_DOMAIN


_REQUIRED = object()


def _entry(cfg: dict, key: str, where: str, default=_REQUIRED, path=False):
    """cfg[key], or ``default`` when absent; a path entry must be text. Any other
    entry goes as it is to the library call that reads it, which checks it."""
    if key not in cfg:
        if default is _REQUIRED:
            raise InvalidInputError(f"{where} lacks required key {key!r}")
        return default
    if path and not isinstance(cfg[key], str):
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
            alpha=cfg.get("alpha", 0.1),
            delta_hat=cfg.get("delta_hat", 0.01),
            test_lengths=_entry(cfg, "test_lengths", "toy schedule"),
            free_lengths=_entry(cfg, "free_lengths", "toy schedule"),
        )
    if kind == "harmonic":
        check_keys(cfg, ("kind", "horizon_tests"), "harmonic schedule")
        rules = sched.harmonic_rules()
    elif kind == "geometric":
        check_keys(cfg, ("kind", "delta0", "p0", "delta_decay", "p_decay", "horizon_tests"),
                   "geometric schedule")
        # a decay the config leaves out takes geometric_rules' default
        rules = sched.geometric_rules(
            delta0=_entry(cfg, "delta0", "geometric schedule"),
            p0=_entry(cfg, "p0", "geometric schedule"),
            **{key: cfg[key] for key in ("delta_decay", "p_decay") if key in cfg},
        )
    else:
        raise InvalidInputError(f"unknown schedule rule kind {kind!r}")
    return sched.build_schedule(
        game, sigma, rules,
        horizon_tests=cfg.get("horizon_tests", 3),
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
    cfg = {"kind": args.rules, "horizon_tests": args.tests}
    if args.rules == "geometric":
        cfg.update(delta0=args.delta0, p0=args.p0)
    schedule = _schedule_from_config(game, sigma, cfg, args.mc_samples, args.seed)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, restval="", fieldnames=[
        "kind", "j", "begin", "length", "delta", "p", "alpha", "beta", "psi", "l_T"])
    writer.writeheader()
    writer.writerows(_schedule_rows(schedule))
    _emit(args, "schedule.csv", buf.getvalue())
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _read_json(args.config, dict, "simulate config must be a JSON object")
    where = "simulate config"
    check_keys(cfg, ("game", "strategy", "seed", "mc_samples", "record", "schedule", "agents",
                     "rounds", "output_dir"), where)
    record = cfg.get("record", "full")
    if record not in ("full", "counts"):
        raise InvalidInputError(
            f"{where} entry 'record' is neither 'full' nor 'counts': {record!r}")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    mc_samples = (args.mc_samples if args.mc_samples is not None
                  else cfg.get("mc_samples", verifier.DEFAULT_MC_SAMPLES))
    verifier.check_draws(mc_samples, seed)  # a toy schedule never estimates psi
    game = load_game(_entry(cfg, "game", where, path=True))
    sigma = load_strategy(_entry(cfg, "strategy", where, path=True))
    schedule = _schedule_from_config(game, sigma, cfg.get("schedule", {}), mc_samples, seed)
    agent_configs = cfg.get("agents")
    rounds = cfg.get("rounds")
    outdir = Path(args.out or _entry(cfg, "output_dir", where, "out", path=True))
    outdir.mkdir(parents=True, exist_ok=True)
    # the manifest hashes what the run used: the config and the numbers resolved from the flags
    settings = {"config": cfg, "seed": seed, "mc_samples": mc_samples, "seeds": args.seeds}
    if args.seeds is not None:
        # batch mode: independent generators per seed, order-free aggregation
        runs = sim.run_batch(game, sigma, schedule, agent_configs,
                             range(seed, seed + args.seeds), rounds=rounds)
        _write(outdir / "batch_summary.json", _json(sim.batch_summary_dict(runs)))
        _manifest(outdir, settings)
        print(f"wrote {outdir}/batch_summary.json")
        return EXIT_OK
    if record == "counts":
        run = sim.run_game_counts(game, sigma, schedule, agent_configs, seed=seed, rounds=rounds)
    else:
        run = sim.run_game(game, sigma, schedule, agent_configs, seed=seed, rounds=rounds)
        sim.transcript_to_csv(run, outdir / "transcript.csv")
    sim.write_summary_json(run, outdir / "summary.json")
    _manifest(outdir, settings)
    print(f"wrote {outdir}/summary.json")
    return EXIT_OK


def _emit(args, name: str, text: str) -> None:
    """Print ``text`` and, with ``--out``, write it there as ``name`` with the manifest."""
    sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write(outdir / name, text)
        _manifest(outdir, {k: v for k, v in vars(args).items() if k != "func"})


def _manifest(outdir: Path, settings: dict) -> None:
    """Write manifest.json: the hash of the settings the run used (a command's
    parsed options, or ``simulate``'s config and resolved numbers), its seed and
    a timestamp."""
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(settings, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "seed": settings["seed"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write(outdir / "manifest.json", _json(manifest))


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


# each flag's rule, applied under the flag's own name before any command runs: the
# library would name the argument (delta_hat, horizon_tests), not the flag as typed
_FLAGS = {
    "tolerance": functools.partial(check_real, interval="[0, inf)"),
    "p": check_unit,
    "delta_hat": check_positive,
    "tests": functools.partial(check_int, lo=1),
    "seed": check_int,
    "seeds": functools.partial(check_int, lo=1),
    "mc_samples": functools.partial(check_int, lo=verifier.MIN_MC_SAMPLES),
    "delta0": check_positive,
    "p0": check_unit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, rule in _FLAGS.items():
            # absent: a flag this command lacks, or simulate's unset --seed, --seeds or --mc-samples
            if (value := getattr(args, dest, None)) is not None:
                rule(value, "--" + dest.replace("_", "-"))
        return args.func(args)
    except (ValueError, OSError, NonConvergenceError) as exc:
        # InvalidInputError and the infeasible-plan errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
