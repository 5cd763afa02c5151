"""Print the sha256 of the program's deterministic outputs, one per line.

Run from any directory:

    python tests/output_hashes.py            # this checkout
    python tests/output_hashes.py OTHER_DIR  # another checkout of the repository
    python tests/output_hashes.py A B        # compare two checkouts: print only the
                                             # outputs that differ, exit 1 if any do
    cd OTHER_DIR && PYTHONPATH=src python tests/output_hashes.py --act-counts
                                             # the counts behind the last line

Two checkouts give the same lines exactly when their outputs are byte-identical:
the CLI's files and stdout on the bundled fixtures (``simulate`` in full and
counts mode, with ``--seeds 5`` under several learner pairs, one of them
playing a drawn fall-back only after a stepped free period, with ``--seeds 20``
where some seeds reject test 1 and the others follow, again with agent 1's
fall-back configured, so a rejected run composes that one vector with agent
2's drawn row, and with
``--seeds 3`` from seed 2**128 - 1, past which a seed has five entropy words;
``check-ce``, ``plan`` (also from seed 2**128, whose psi draws come from
five-word seeds), ``test``, and ``schedule`` out to sample sizes of 1e14
and levels of 1e-12), ``plan`` and ``schedule`` on a 3-agent announcement
with zero cells, ``plan`` on a 5-agent one with zero cells and interior psi,
``plan`` and a 3-test ``schedule`` on a near-product 2x3x4 announcement
whose multi-deviator subsets have interior psi (psi groups subsets by their
deviators' grid shapes, all different here),
``simulate --seeds 20`` on a generated game whose 9-action agent draws its
fall-backs, the stdout of every demo, and per-seed
``sim.agent_act`` call counts of ``run_game_counts`` plus ``run_pure_learning``
on the bundled game, for seeds 0-4 and 2**128, with each baseline's whole-run
``counts`` and exact ``utility_totals``. ``manifest.json`` carries a
timestamp and is left out. Each command runs in a fresh process on the
checkout's own ``src/``. The file is not a test module, so pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FP = {"name": "fictitious-play"}
PAIRS = {
    "fp-fp": [FP, FP],
    "fp-uniform": [FP, {"name": "uniform"}],
    "fp-trigger": [FP, {"name": "trigger", "switch_action": 1, "watch_action": 1}],
}
# zero on joint actions 6 and 8 (1-based): psi's screen bounds their mass per deviator
ZERO_CELLS = [0.24, 0.10, 0.14, 0.06, 0.09, 0, 0.15, 0, 0.09, 0.04, 0.06, 0.03]
# a product of these 2-action marginals with joint actions 6 and 27 (1-based) zeroed:
# near a product, so every deviating subset's undetectable fraction is interior
MARGINALS_2_5 = [(0.6, 0.4), (0.5, 0.5), (0.7, 0.3), (0.55, 0.45), (0.65, 0.35)]
# a product of these marginals with 0.01 moved from joint action 2 to 1 (1-based): at
# delta 0.1 and 0.2 every multi-deviator subset's undetectable fraction is interior
MARGINALS_2_3_4 = [(0.6, 0.4), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1)]
GAME_STRATEGY = ["--game", "fixtures/small_game.json", "--strategy", "fixtures/ce_strategy.json"]
# `check-ce` and `test` exit 1 (the CLI's EXIT_DOMAIN) for "not a CE" and "rejected"
DOMAIN = (0, 1)


def _run(root: Path, argv: list[str], codes=(0,)) -> bytes:
    """stdout of ``argv``; a crash (an exit code not in ``codes``, or any stderr) stops the tool."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                          timeout=600)
    if done.returncode not in codes or done.stderr:
        raise SystemExit(f"{argv} exited {done.returncode}: {done.stderr.decode()}")
    return done.stdout


def _cli(root: Path, *args: str, codes=(0,)) -> bytes:
    return _run(root, ["-m", "advicecheck.cli", *args], codes)


def _config(root: Path, tmp: Path, name: str, **changes) -> str:
    with open(root / "fixtures" / "sim_config.json") as fh:
        cfg = json.load(fh)
    cfg.update(changes)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def outputs(root: Path, tmp: Path):
    """(name, bytes) of every output compared."""
    out = tmp / "out"
    non_ce = "fixtures/non_ce_strategy.json"
    for name, cfg in [("full", "fixtures/sim_config.json"),
                      ("counts", _config(root, tmp, "counts", record="counts")),
                      ("full-non-ce", _config(root, tmp, "non-ce", strategy=non_ce))]:
        _cli(root, "simulate", "--config", cfg, "--out", str(out / name))
        for file in sorted((out / name).glob("*")):
            if file.name != "manifest.json":
                yield f"simulate {name} {file.name}", file.read_bytes()
    for strategy in ("ce", "non_ce"):
        for pair, specs in PAIRS.items():
            name = f"{strategy}-{pair}"
            cfg = _config(root, tmp, name, strategy=f"fixtures/{strategy}_strategy.json",
                          agents=[{"learner": s} for s in specs])
            _cli(root, "simulate", "--config", cfg, "--seeds", "5", "--out", str(out / name))
            yield (f"simulate --seeds 5 {strategy} {pair} batch_summary.json",
                   (out / name / "batch_summary.json").read_bytes())
    # agent 1 is rejected at test 1 (seeds 1, 3, 5), samples its uniform learner in
    # a stepped free period (agent 2's FP is sequential), then first plays its
    # drawn fall-back at test 2: its fall-back is drawn before those samples
    cfg = _config(root, tmp, "non-ce-uniform-fp", strategy=non_ce,
                  agents=[{"learner": {"name": "uniform"}}, {"learner": FP}])
    _cli(root, "simulate", "--config", cfg, "--seeds", "5", "--out", str(out / "uniform-fp"))
    yield ("simulate --seeds 5 non_ce uniform-fp batch_summary.json",
           (out / "uniform-fp" / "batch_summary.json").read_bytes())
    # at alpha 0.25, 7 of seeds 1-20 reject test 1 and the rest follow: each free
    # period has a cohort stepping fictitious play and a cohort drawn in bulk
    cfg = _config(root, tmp, "cohort-split", schedule={
        "kind": "toy", "alpha": 0.25, "delta_hat": 0.01, "test_lengths": [300, 300],
        "free_lengths": [900, 900]})
    _cli(root, "simulate", "--config", cfg, "--seeds", "20", "--out", str(out / "cohort-split"))
    yield ("simulate --seeds 20 cohort-split batch_summary.json",
           (out / "cohort-split" / "batch_summary.json").read_bytes())
    # the same split with agent 1's fall-back configured: in test 2 a rejected run's
    # agent 1 plays the one configured vector and its agent 2 a row of the drawn ones,
    # composed together in one cohort; uniform learners draw every free period in bulk
    cfg = _config(root, tmp, "configured-fallback", schedule={
        "kind": "toy", "alpha": 0.25, "delta_hat": 0.01, "test_lengths": [300, 300],
        "free_lengths": [900, 900]}, agents=[
            {"fallback": [0.7, 0.3], "learner": {"name": "uniform"}},
            {"learner": {"name": "uniform"}}])
    _cli(root, "simulate", "--config", cfg, "--seeds", "20", "--out",
         str(out / "configured-fallback"))
    yield ("simulate --seeds 20 configured fall-back batch_summary.json",
           (out / "configured-fallback" / "batch_summary.json").read_bytes())
    # agent 1 has 9 actions and is screened by the uniform announcement, so every
    # seed draws a 9-action fall-back at test 1 (rows of 9 or more are summed with
    # unrolled accumulators); agent 2 tests, and 4 of seeds 1-20 follow after test 1
    game, strategy = tmp / "nine-action-game.json", tmp / "nine-action-strategy.json"
    game.write_text(json.dumps({"num_agents": 2, "action_counts": [9, 2],
                                "utilities": [[a, 0] for a in range(9) for _ in range(2)]}))
    strategy.write_text(json.dumps([1 / 18] * 18))
    cfg = _config(root, tmp, "nine-actions", game=str(game), strategy=str(strategy),
                  agents=[{"learner": {"name": "uniform"}}, {"learner": FP}],
                  schedule={"kind": "toy", "alpha": 0.1, "delta_hat": 0.01,
                            "test_lengths": [30, 30], "free_lengths": [300, 300]})
    _cli(root, "simulate", "--config", cfg, "--seeds", "20", "--out", str(out / "nine-actions"))
    yield ("simulate --seeds 20 nine-action fall-backs batch_summary.json",
           (out / "nine-actions" / "batch_summary.json").read_bytes())
    # a seed of 2**128 or more has five or more entropy words: more mixing stages
    _cli(root, "simulate", "--config", "fixtures/sim_config.json", "--seeds", "3",
         "--seed", str(2**128 - 1), "--out", str(out / "multi-word"))
    yield (f"simulate --seeds 3 --seed {2**128 - 1} batch_summary.json",
           (out / "multi-word" / "batch_summary.json").read_bytes())
    for strategy in ("ce", "non_ce"):
        yield f"check-ce {strategy}", _cli(root, "check-ce", "--game", "fixtures/small_game.json",
                                          "--strategy", f"fixtures/{strategy}_strategy.json",
                                          codes=DOMAIN)
    yield "plan stdout", _cli(root, "plan", *GAME_STRATEGY, "--p", "0.1", "--delta-hat", "0.01")
    # psi's generators from a five-word seed: more mixing stages
    yield (f"plan --seed {2**128}", _cli(root, "plan", *GAME_STRATEGY, "--p", "0.1",
                                         "--delta-hat", "0.01", "--seed", str(2**128)))
    for counts in ("accept", "reject"):
        yield f"test {counts}", _cli(root, "test", *GAME_STRATEGY,
                                     "--counts", f"fixtures/{counts}_counts.json", codes=DOMAIN)
    yield "test simulated", _cli(root, "test", *GAME_STRATEGY, "--seed", "1", codes=DOMAIN)
    # geometric l_T reaches 1.3e14 at test 8, harmonic alpha 9.1e-13 at test 40
    for rules, tests in [("harmonic", "3"), ("geometric", "3"), ("geometric", "8"),
                         ("harmonic", "40")]:
        yield (f"schedule {rules} --tests {tests}",
               _cli(root, "schedule", "--game", "fixtures/small_game.json",
                    "--strategy", "fixtures/correlated_strategy.json", "--rules", rules,
                    "--tests", tests))
    # no bundled announcement has zero cells; this 2x3x2 one has two
    game, strategy = tmp / "zero-cells-game.json", tmp / "zero-cells-strategy.json"
    game.write_text(json.dumps({"num_agents": 3, "action_counts": [2, 3, 2],
                                "utilities": [[(3 * j + i) * 7 % 10 for i in range(3)]
                                              for j in range(12)]}))
    strategy.write_text(json.dumps(ZERO_CELLS))
    zero = ["--game", str(game), "--strategy", str(strategy)]
    yield "plan zero cells", _cli(root, "plan", *zero, "--p", "0.05", "--delta-hat", "0.02")
    yield "schedule zero cells", _cli(root, "schedule", *zero, "--rules", "geometric",
                                      "--tests", "3", "--delta0", "0.05", "--p0", "0.2")
    cells = [math.prod(MARGINALS_2_5[d][a] for d, a in enumerate(joint))
             for joint in itertools.product(range(2), repeat=5)]
    cells[5] = cells[26] = 0.0
    game, strategy = tmp / "zero-cells-game-2-5.json", tmp / "zero-cells-strategy-2-5.json"
    game.write_text(json.dumps({"num_agents": 5, "action_counts": [2] * 5,
                                "utilities": [[(3 * j + i) * 7 % 10 for i in range(5)]
                                              for j in range(32)]}))
    strategy.write_text(json.dumps([c / sum(cells) for c in cells]))
    yield "plan zero cells 2^5", _cli(root, "plan", "--game", str(game), "--strategy",
                                      str(strategy), "--p", "0.2", "--delta-hat", "0.02")
    cells = [math.prod(MARGINALS_2_3_4[d][a] for d, a in enumerate(joint))
             for joint in itertools.product(range(2), range(3), range(4))]
    cells[0], cells[1] = cells[0] + 0.01, cells[1] - 0.01
    game, strategy = tmp / "game-2-3-4.json", tmp / "strategy-2-3-4.json"
    game.write_text(json.dumps({"num_agents": 3, "action_counts": [2, 3, 4],
                                "utilities": [[(3 * j + i) * 7 % 10 for i in range(3)]
                                              for j in range(24)]}))
    strategy.write_text(json.dumps(cells))
    mixed = ["--game", str(game), "--strategy", str(strategy)]
    yield "plan 2x3x4", _cli(root, "plan", *mixed, "--p", "0.5", "--delta-hat", "0.1")
    yield "schedule 2x3x4", _cli(root, "schedule", *mixed, "--rules", "geometric", "--tests", "3",
                                 "--delta0", "0.2", "--p0", "0.5")
    for demo in sorted((root / "demos").glob("*.py")):
        yield f"demo {demo.stem}", _run(root, [str(demo)])
    yield "agent_act calls per seed", _run(root, [__file__, "--act-counts"])


def _act_counts() -> None:
    """Print, per learner pair and seed, how often the engine calls ``sim.agent_act``, and
    the pure-learning baseline's whole-run counts and exact utility totals."""
    from advicecheck import load_game, load_strategy, schedule, sim

    game = load_game("fixtures/small_game.json")
    sigma = load_strategy("fixtures/non_ce_strategy.json")
    sched = schedule.toy_schedule(game, sigma, 0.1, 0.01, [120], [11_880])
    calls = 0
    act = sim.agent_act

    def counted(*args):
        nonlocal calls
        calls += 1
        return act(*args)

    sim.agent_act = counted
    for pair, specs in PAIRS.items():
        per_seed = []
        baselines = []
        for seed in (*range(5), 2**128):  # 2**128: five entropy words
            calls = 0
            sim.run_game_counts(game, sigma, sched, [{"learner": s} for s in specs], seed=seed)
            pure = sim.run_pure_learning(game, specs, rounds=sched.horizon, seed=seed)
            per_seed.append(calls)
            baselines.append((seed, pure.counts.tolist(), pure.utility_totals))
        print(pair, per_seed)
        for baseline in baselines:
            print(pair, "baseline", *baseline)


def hashes(root: Path) -> dict[str, str]:
    """name -> sha256 of every output of the checkout at ``root``, in ``outputs`` order."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs(root.resolve(), Path(tmp))}


def main() -> None:
    args = sys.argv[1:]
    if args == ["--act-counts"]:
        _act_counts()
        return
    if len(args) > 2:
        raise SystemExit("usage: output_hashes.py [CHECKOUT [OTHER_CHECKOUT]] | --act-counts")
    if len(args) < 2:
        root = Path(args[0] if args else Path(__file__).resolve().parent.parent)
        for name, digest in hashes(root).items():
            print(digest, name)
        return
    a, b = (hashes(Path(arg)) for arg in args)
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        print(a.get(name, "-"), b.get(name, "-"), name)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
