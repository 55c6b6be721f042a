"""Random-number-generator helpers.

All Monte-Carlo entry points in this package accept either an integer seed
or a ready-made :class:`numpy.random.Generator`.  Centralising the
conversion here keeps experiment code deterministic and reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "pcg64_states", "seed_root", "spawn_rngs", "substream"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in uint32 words
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh OS entropy), an integer, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``n`` statistically independent generators.

    Used by shot runners so each trial stream is independent regardless of
    how many samples earlier trials consumed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = make_rng(seed)
    return [np.random.default_rng(s) for s in root.bit_generator.seed_seq.spawn(n)]


def seed_root(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
) -> np.random.SeedSequence:
    """Canonical :class:`numpy.random.SeedSequence` for any seed form.

    ``seed`` may be ``None`` (fresh OS entropy), an integer, a
    ``SeedSequence`` (returned unchanged) or a ``Generator``.  This is
    the anchor the sharded executor derives per-shot substreams from,
    so the same integer always names the same family of streams.

    A ``Generator`` contributes a freshly *spawned* child of its seed
    sequence — a stateful operation, so successive calls with the same
    generator yield independent roots.  That preserves the historical
    contract that reusing one generator across points samples fresh
    noise each time (reading the generator's initial seed sequence
    directly would silently replay identical noise on every call).
    For the same reason a ``SeedSequence`` that has already spawned
    children contributes a fresh child rather than itself: its
    spawn-keyed substreams (children ``0..n-1``) are exactly the
    streams those earlier children already use, and sharing them would
    correlate supposedly independent samples.
    """
    if isinstance(seed, np.random.SeedSequence):
        if seed.n_children_spawned:
            return seed.spawn(1)[0]
        return seed
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq.spawn(1)[0]
    return np.random.SeedSequence(seed)


def substream(root: np.random.SeedSequence, index: int) -> np.random.Generator:
    """The ``index``-th child stream of ``root``, derived statelessly.

    For a root that has never spawned, this is bit-identical to
    ``root.spawn(index + 1)[index]`` (a spawned child's key is the
    parent's ``spawn_key`` extended by its index) but without mutating
    ``root``'s spawn counter, so any worker process can derive any
    shot's generator independently — the foundation of
    chunking-invariant Monte-Carlo results.  Callers must not mix
    stateful ``spawn`` and ``substream`` on the same root
    (:func:`seed_root` hands out fresh roots to prevent exactly that).
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    child = np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (index,),
        pool_size=root.pool_size,
    )
    return np.random.default_rng(child)



def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The first ``n + 1`` values of a SeedSequence hash constant: hash
    call ``j`` XORs in value ``j`` and multiplies by value ``j + 1``."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


_A = _hash_consts(_INIT_A, _MULT_A, 4 * _POOL)
# Per pool word: the (xor, multiply) constants of its first hash, then
# per source word the constants it mixes into each other word with (a
# dummy at the source's own slot, which is restored afterwards).
_FILL = (_column(_A[:_POOL]), _column(_A[1 : _POOL + 1]))
_SPREAD = []
for _src in range(_POOL):
    _j = _POOL + 3 * _src
    _x = [_A[_j + i - (i > _src)] if i != _src else 0 for i in range(_POOL)]
    _m = [_A[_j + 1 + i - (i > _src)] if i != _src else 0 for i in range(_POOL)]
    _SPREAD.append((_column(_x), _column(_m)))
_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_DRAW = (_column(_B[: 2 * _POOL]), _column(_B[1:]))
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
_SHIFT = np.uint32(16)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` (uint32, wrapping)."""
    values = values ^ xor
    values *= mult
    values ^= values >> _SHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _SHIFT
    return out


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """The ``(state, inc)`` pair ``np.random.PCG64(seed)`` starts from,
    for every non-negative integer in ``seeds``.

    Equal to ``PCG64(seed).state["state"]`` without building a
    ``SeedSequence`` and a bit generator per seed: SeedSequence's
    entropy mixing and ``generate_state(4, uint64)`` run as uint32
    numpy passes over all seeds at once (one pool word per array row),
    and PCG64's set-seed (two LCG steps) on Python ints.  Seeds wider
    than the four-word pool mix their extra words in as numpy does,
    masked per seed.
    """
    ints = [int(seed) for seed in seeds]
    if not ints:
        return []
    if min(ints) < 0:
        raise ValueError("seeds must be non-negative")
    # Entropy words: a seed's 32-bit words, little end first; words past
    # its length hash as 0, as SeedSequence runs its hash out over an
    # unfilled pool.
    if max(ints) >> 64:
        n_words = np.array([max(1, -(-s.bit_length() // 32)) for s in ints])
        width = max(_POOL, int(n_words.max()))
        words = np.array(
            [[(s >> (32 * i)) & _MASK32 for s in ints] for i in range(width)],
            dtype=np.uint32,
        )
    else:
        wide = np.array(ints, dtype=np.uint64)
        words = np.zeros((_POOL, len(ints)), dtype=np.uint32)
        words[0] = wide & np.uint64(_MASK32)
        words[1] = wide >> np.uint64(32)
    pool = _hashmix(words[:_POOL], *_FILL)
    for src, consts in enumerate(_SPREAD):
        own = pool[src].copy()
        pool = _mix(pool, _hashmix(pool[src], *consts))
        pool[src] = own
    if len(words) > _POOL:
        extra = _hash_consts(
            _A[-1], _MULT_A, _POOL * (len(words) - _POOL)
        )
        for src in range(_POOL, len(words)):
            j = _POOL * (src - _POOL)
            mixed = _mix(
                pool,
                _hashmix(
                    words[src], _column(extra[j : j + _POOL]),
                    _column(extra[j + 1 : j + _POOL + 1]),
                ),
            )
            live = n_words > src
            pool[:, live] = mixed[:, live]
    # generate_state(4, uint64): eight words cycled from the pool,
    # paired little-endian into uint64.
    state = _hashmix(np.concatenate([pool, pool]), *_DRAW)
    pairs = []
    for hi_s, lo_s, hi_i, lo_i in (
        np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()
    ):
        inc = ((hi_i << 65) | (lo_i << 1) | 1) & _MASK128
        start = (hi_s << 64) | lo_s
        pairs.append((((inc + start) * _PCG_MULT + inc) & _MASK128, inc))
    return pairs
