"""Is verification ever costly? Comparing against pure learning.

When the announcement is bad, agents that run the verification loop spend
the sampling tests either following a bad suggestion or playing a random
fall-back; the rest of the time they learn exactly as they would have
anyway. With free periods dominating the timeline, the average-utility gap
to pure learning shrinks toward zero.

Pure fictitious play on the bundled game locks into the pure equilibrium
worth (5, 2), which makes it a demanding baseline for agent 1.
"""

from advicecheck import (
    average_utility,
    build_ledger,
    load_game,
    load_strategy,
    run_game_counts,
    run_pure_learning,
    toy_schedule,
)

game = load_game("fixtures/small_game.json")
bad = load_strategy("fixtures/non_ce_strategy.json")
fp = {"name": "fictitious-play"}
configs = [{"learner": fp}, {"learner": fp, "fallback": [0.75, 0.25]}]

# one test of 2500 rounds followed by a long free period
sched = toy_schedule(game, bad, alpha=0.1, delta_hat=0.01,
                     test_lengths=[2500], free_lengths=[47500])
horizon = sched.horizon

print(f"horizon: {horizon} rounds ({2500 / horizon:.1%} spent testing)")
print("seed   with verification      pure learning         gap")
for seed in range(3):
    rs = run_game_counts(game, bad, sched, configs, seed=seed)
    ledger = build_ledger(rs)
    pure = build_ledger(run_pure_learning(game, [fp, fp], rounds=horizon, seed=seed))
    lam = [average_utility(ledger, a, horizon) for a in range(2)]
    base = [average_utility(pure, a, horizon) for a in range(2)]
    gaps = [la - b for la, b in zip(lam, base)]
    print(f"  {seed}   ({lam[0]:.3f}, {lam[1]:.3f})      "
          f"({base[0]:.3f}, {base[1]:.3f})      "
          f"({gaps[0]:+.3f}, {gaps[1]:+.3f})")
print()
print("the gap scales with the tested fraction of the horizon; longer free")
print("periods (the conforming squared rule) push it to zero")
