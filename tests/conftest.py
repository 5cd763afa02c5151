from pathlib import Path

import numpy as np
import pytest

from advicecheck import CorrelatedStrategy, Game, load_game, load_strategy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def game():
    return load_game(FIXTURES / "small_game.json")


@pytest.fixture(scope="session")
def ce_strategy():
    return load_strategy(FIXTURES / "ce_strategy.json")


@pytest.fixture(scope="session")
def non_ce_strategy():
    return load_strategy(FIXTURES / "non_ce_strategy.json")


@pytest.fixture(scope="session")
def correlated_strategy():
    return load_strategy(FIXTURES / "correlated_strategy.json")


@pytest.fixture(scope="session")
def game_3x2():
    """A 3x2 game and a full-support announcement that agent 1 follows and agent 2 rejects.

    Agent 1's payoff depends only on agent 2's action, so it never gains by deviating.
    """
    rng = np.random.default_rng(32)
    utilities = rng.uniform(0, 5, size=(6, 2))
    utilities[:, 0] = np.tile(utilities[:2, 0], 3)
    return Game([3, 2], utilities), CorrelatedStrategy(rng.dirichlet(np.full(6, 5.0)))


@pytest.fixture(scope="session")
def game_2x2x2():
    """A 2x2x2 game and a full-support announcement that every agent rejects."""
    rng = np.random.default_rng(0)
    return Game([2, 2, 2], rng.uniform(0, 5, size=(8, 3))), CorrelatedStrategy(
        rng.dirichlet(np.full(8, 5.0)))
