"""Seeded random streams: every generator keyed by (seed, key) is built here.

The generator of (seed, key) has the stream of child ``key`` of
``SeedSequence(seed).spawn``. A run's mediator has key 0 and its agent i key
1 + i; psi's and the pure-learning baseline's agent i has key i.
"""

from __future__ import annotations

import functools

import numpy as np

def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` constants c_j = ``init * mult**j mod 2**32`` of a SeedSequence
    hash (numpy/random/bit_generator.pyx), whose call j xors with c_j, multiplies by c_{j+1}."""
    return [init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(count)]


@functools.cache
def _entropy_stages(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (xor, multiplier) columns of each stage of ``mix_entropy`` over
    ``words`` seed words (at least 4, the pool size) and one spawn-key word.

    Stage 0 hashes the first four words into the pool; stage 1 + s mixes
    pool word s into the other three (its own row is a placeholder, since
    the caller restores that word); each later stage mixes one more word
    into all four.
    """
    c = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * words + 5)

    def column(values):
        return np.array(values, dtype=np.uint32)[:, None]

    stages = [(column(c[0:4]), column(c[1:5]))]
    for src in range(4):
        xors, mults = c[4 + 3 * src : 7 + 3 * src], c[5 + 3 * src : 8 + 3 * src]
        stages.append((column(xors[:src] + [0] + xors[src:]),
                       column(mults[:src] + [0] + mults[src:])))
    stages += [(column(c[j : j + 4]), column(c[j + 1 : j + 5])) for j in range(16, 4 * words + 1, 4)]
    return stages


_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)  # generate_state's
_STATE_XORS = np.array(_STATE_HASH[:8], dtype=np.uint32)[:, None, None]
_STATE_MULTS = np.array(_STATE_HASH[1:], dtype=np.uint32)[:, None, None]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(values, xors, mults):
    values = (values ^ xors) * mults
    return values ^ (values >> 16)


def _mix(x, y):
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _seed_states(seeds, keys) -> np.ndarray:
    """``SeedSequence(s, spawn_key=(k,)).generate_state(4, np.uint64)`` for
    every seed s (a non-negative int) and key k (below 2**32): an (S, K, 4)
    uint64 array of PCG64 states.

    It runs SeedSequence's fixed algorithm (``mix_entropy`` on the seed's
    words, zero-padded to the 4-word pool, then the key's word; then
    ``generate_state``) as one numpy pass over all rows, in uint32 arithmetic,
    which wraps as the C code does: a few dozen small-array operations
    whatever the number of rows. A seed of 2**128 or more has more words and
    so more mixing stages: the seeds are grouped by word count.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    out = np.empty((len(seeds), len(keys), 4), dtype=np.uint64)
    groups: dict[int, list[int]] = {}
    for row, seed in enumerate(seeds):
        groups.setdefault(max(4, -(-seed.bit_length() // 32)), []).append(row)
    for words, rows in groups.items():
        entropy = np.frombuffer(b"".join(seeds[r].to_bytes(4 * words, "little") for r in rows),
                                dtype="<u4").reshape(len(rows), words).T
        stages = _entropy_stages(words)
        pool = _hash(entropy[:4], *stages[0])
        for src in range(4):
            mixed = _mix(pool, _hash(pool[src], *stages[1 + src]))
            mixed[src] = pool[src]
            pool = mixed
        for w in range(4, words):
            pool = _mix(pool, _hash(entropy[w], *stages[1 + w]))
        pool = _mix(pool[:, :, None], _hash(keys, *stages[1 + words])[:, None, :])
        # generate_state: 8 words cycling over the pool, paired little-endian into 4 uint64
        state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XORS, _STATE_MULTS).astype(np.uint64)
        out[rows] = (state[0::2] | state[1::2] << np.uint64(32)).transpose(1, 2, 0)
    return out


@functools.cache
def _given_state():
    """The ``ISeedSequence`` that hands PCG64 a state ``_seed_states`` computed, built on
    first use: subclassing loads ``numpy.random``, which ``import advicecheck`` does not."""

    class GivenState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for its 4 uint64 words

    return GivenState


def _generators(states) -> list[np.random.Generator]:
    """The generator of each PCG64 state in ``states``, rows of ``_seed_states``:
    ~1.5 µs each against ~12 µs through ``SeedSequence`` on a 2-vCPU Xeon."""
    given = _given_state()
    return [np.random.default_rng(np.random.PCG64(given(state))) for state in states]


def generators(seed: int, keys) -> list[np.random.Generator]:
    """The generator of (``seed``, k) for each key k, in order."""
    return _generators(_seed_states([seed], keys)[0])
