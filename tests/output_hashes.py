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
counts mode and with ``--seeds 5`` under several learner pairs, ``check-ce``,
``plan``, ``test`` and ``schedule``), ``plan`` and ``schedule`` on a 3-agent
announcement with zero cells, the stdout of every demo, and per-seed
``sim.agent_act`` call counts of ``run_game_counts`` plus ``run_pure_learning``
on the bundled game. ``manifest.json`` carries a timestamp and is left out.
Each command runs in a fresh process on the checkout's own ``src/``. The file
is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
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
    for strategy in ("ce", "non_ce"):
        yield f"check-ce {strategy}", _cli(root, "check-ce", "--game", "fixtures/small_game.json",
                                          "--strategy", f"fixtures/{strategy}_strategy.json",
                                          codes=DOMAIN)
    yield "plan stdout", _cli(root, "plan", *GAME_STRATEGY, "--p", "0.1", "--delta-hat", "0.01")
    for counts in ("accept", "reject"):
        yield f"test {counts}", _cli(root, "test", *GAME_STRATEGY,
                                     "--counts", f"fixtures/{counts}_counts.json", codes=DOMAIN)
    yield "test simulated", _cli(root, "test", *GAME_STRATEGY, "--seed", "1", codes=DOMAIN)
    for rules in ("harmonic", "geometric"):
        yield f"schedule {rules}", _cli(root, "schedule", "--game", "fixtures/small_game.json",
                                       "--strategy", "fixtures/correlated_strategy.json",
                                       "--rules", rules, "--tests", "3")
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
    for demo in sorted((root / "demos").glob("*.py")):
        yield f"demo {demo.stem}", _run(root, [str(demo)])
    yield "agent_act calls per seed", _run(root, [__file__, "--act-counts"])


def _act_counts() -> None:
    """Print, per learner pair and seed, how often the engine calls ``sim.agent_act``."""
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
        for seed in range(5):
            calls = 0
            sim.run_game_counts(game, sigma, sched, [{"learner": s} for s in specs], seed=seed)
            sim.run_pure_learning(game, specs, rounds=sched.horizon, seed=seed)
            per_seed.append(calls)
        print(pair, per_seed)


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
