"""Running the accept/reject decision on observed counts.

Two classic 2100-round count vectors against the bundled game:

  - counts close to a good announcement: the statistic stays below the
    critical value and the agent keeps following;
  - counts generated while agent 2 ignored a bad announcement: agent 2
    already rejected by the incentive screen, and agent 1's statistic is
    enormous.
"""

import json

from advicecheck import Decision, Outcome, load_game, load_strategy, manual_plan, run_sampling_decision
from advicecheck.games import agent_incentive_violations

game = load_game("fixtures/small_game.json")


def decide(plan, sigma, agent, counts):
    """An agent first screens its own incentive constraints; only if they hold
    does it take the verdict on the public counts."""
    if agent_incentive_violations(game, sigma, agent):
        return Decision(Outcome.REJECT_BY_EQ2)
    return run_sampling_decision(plan, sigma, counts)


print("== accepting: everyone followed the good announcement ==")
good = load_strategy("fixtures/ce_strategy.json")
counts = json.load(open("fixtures/accept_counts.json"))
plan = manual_plan(game, good, alpha=0.1, delta_hat=0.01, sample_size=sum(counts))
d = decide(plan, good, 0, counts)
print("counts:        ", counts)
print("statistic:     ", round(d.statistic, 4), "vs critical", round(plan.critical_value, 4))
print("p-value:       ", round(d.p_value, 4))
print("outcome:       ", d.outcome.value)

print()
print("== rejecting: agent 2 ignored the bad announcement ==")
bad = load_strategy("fixtures/non_ce_strategy.json")
counts = json.load(open("fixtures/reject_counts.json"))
plan = manual_plan(game, bad, alpha=0.1, delta_hat=0.01, sample_size=sum(counts))

d2 = decide(plan, bad, 1, counts)
print("agent 2 outcome:", d2.outcome.value, "(its own incentive check already failed)")

d1 = decide(plan, bad, 0, counts)
print("agent 1 statistic:", round(d1.statistic, 1), "vs critical", round(plan.critical_value, 4))
print("agent 1 outcome:  ", d1.outcome.value)
print("agent 1 p-value:  ", d1.p_value, "(the rejection is overwhelming, not marginal)")
