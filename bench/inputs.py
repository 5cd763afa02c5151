"""Seeded inputs and independent reference math for the benchmark.

Every game, announcement and run configuration a workload hands to
advicecheck is drawn here from the benchmark's ``--seed``. The reference
routines (incentive gaps, psi) are written from the definitions with numpy
alone, so the output checks do not ask the program to grade itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The 2x2 worked-example game (fixtures/small_game.json) and its non-CE
# announcement: agent 2 gains 2.0 by deviating at its first signal.
SMALL_COUNTS = (2, 2)
SMALL_UTILITIES = np.array([[0, 1], [2, 5], [5, 2], [1, 0]], dtype=float)
NON_CE = np.array([2, 10, 1, 5], dtype=float) / 18
# agent 2's fall-back in the worked example's rejection scenario
WORKED_FALLBACK = [0.75, 0.25]

CE_MARGIN = 1e-6  # generated equilibria keep every incentive gap below -CE_MARGIN


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One generator per (seed, workload), so workloads draw independently."""
    return np.random.default_rng([seed, *workload.encode()])


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def incentive_gaps(counts, utilities, probs) -> list[float]:
    """Largest deviation gain per agent over its positive-marginal signals."""
    tensor = np.asarray(probs, float).reshape(counts)
    out = []
    for i in range(len(counts)):
        u = np.moveaxis(np.asarray(utilities)[:, i].reshape(counts), i, 0)
        w = np.moveaxis(tensor, i, 0)
        worst = -math.inf
        for s in range(counts[i]):
            mass = w[s].sum()
            if mass <= 0:
                continue
            follow = (w[s] * u[s]).sum()
            for alt in range(counts[i]):
                if alt != s:
                    worst = max(worst, ((w[s] * u[alt]).sum() - follow) / mass)
        out.append(worst)
    return out


def random_ce(rng: np.random.Generator) -> np.ndarray:
    """A full-support correlated equilibrium of the small game, by rejection."""
    while True:
        probs = rng.dirichlet(np.ones(4))
        if max(incentive_gaps(SMALL_COUNTS, SMALL_UTILITIES, probs)) < -CE_MARGIN:
            return probs


def random_utilities(rng: np.random.Generator, counts) -> np.ndarray:
    return rng.uniform(0.0, 10.0, size=(math.prod(counts), len(counts)))


def near_product(rng: np.random.Generator, counts, eps: float = 0.02) -> np.ndarray:
    """Product of random marginals mixed with a little correlated mass.

    Close enough to a product distribution that single deviators hide easily,
    which keeps psi at delta 0.01 in roughly [0.01, 0.15].
    """
    joint = np.ones(1)
    for c in counts:
        joint = np.multiply.outer(joint, rng.dirichlet(np.full(c, 3.0))).ravel()
    mixed = (1.0 - eps) * joint + eps * rng.dirichlet(np.ones(joint.size))
    return mixed / mixed.sum()


def write_json(path: Path, data) -> Path:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def write_game(path: Path, counts, utilities) -> Path:
    return write_json(path, {"action_counts": list(counts), "utilities": np.asarray(utilities).tolist()})


# --- reference psi ------------------------------------------------------------


def reference_psi(counts, probs, delta_hat: float, samples: int, seed: int,
                  chunk: int = 4096) -> tuple[float, float]:
    """Worst-case undetectable-deviation measure, by the quadratic-form identity.

    For deviators D composing uniform fall-backs g_d with the others' marginal m,
    delta = <W, (x) g_d^2> - 2 <L, (x) g_d> + 1 with W = sum_K m^2/sigma and
    L = sum_K m over announced-positive cells. Returns (psi, standard error)
    of the maximising subset. Draws come from this module's own stream.
    """
    n = len(counts)
    tensor = np.asarray(probs, float).reshape(counts)
    positive = tensor > 0
    rng = np.random.default_rng([seed, 7])
    best = (0.0, 0.0)
    for mask in range(1, 2**n):
        devs = [i for i in range(n) if mask >> i & 1]
        keep = tuple(i for i in range(n) if i not in devs)
        marg = tensor.sum(axis=tuple(devs), keepdims=True)
        ratio = np.where(positive, marg**2 / np.where(positive, tensor, 1.0), 0.0)
        w = ratio.sum(axis=keep) if keep else ratio
        lin = np.where(positive, marg, 0.0)
        lin = lin.sum(axis=keep) if keep else lin
        below = 0
        for start in range(0, samples, chunk):
            size = min(chunk, samples - start)
            gammas = []
            for d in devs:
                g = rng.exponential(size=(size, counts[d]))
                gammas.append(g / g.sum(axis=1, keepdims=True))
            quad = _contract(w, [g * g for g in gammas])
            line = _contract(lin, gammas)
            below += int(np.count_nonzero(quad - 2.0 * line + 1.0 < delta_hat))
        frac = below / samples
        if frac >= best[0]:
            best = (frac, math.sqrt(frac * (1.0 - frac) / samples))
    return best


def _contract(grid: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Per-sample <grid, (x) factors>, contracting one deviator axis at a time."""
    size = factors[0].shape[0]
    acc = np.broadcast_to(grid.reshape(1, -1), (size, grid.size))
    for f in factors:
        acc = np.einsum("nc,ncr->nr", f, acc.reshape(size, f.shape[1], -1))
    return acc[:, 0]
