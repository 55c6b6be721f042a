"""The engines' hot kernels.

Both QECOOL engines compute on packed race keys through this module's
kernels: the winner races (:func:`race` over ``(lane, sink, base)``
triples and the single-sink :func:`_race_one`), the cache-validity scan
(:func:`valid_entries`), the push invalidation (:func:`push_beats`) and
the survey's stale-bound refinement (:func:`survey_need`).  The scalar
engine hands them its mask vector as a one-lane ``(1, N)`` slab.  Each
kernel is a pure function of the slab state it is handed;
:func:`survey_need` also fills the winner slab it re-races (cache
contents are never observable).  Everything observable --
matches, Reg bit clears, charges -- is applied by the engines
themselves; the batch engine's commit-level conflict scan lives in
``QecoolEngineBatch._commit_level``.

uint64 discipline: Reg masks can have bit 63 set (``MAX_LAYERS`` =
64), so every mask temporary stays ``np.uint64``; mixing with int64
would promote to float64 under NEP 50.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Packed-key sentinel for "no candidate" (mirrors the engine's
#: ``_NO_CANDIDATE``; real candidate keys are far below it).
NO_CANDIDATE = 1 << 62

_ONE = np.uint64(1)

# Reg depth cap (mirrors the engine's MAX_LAYERS; kernels avoid the
# engine import to stay cycle-free).
_MAX_LAYERS = 64


@dataclass(frozen=True)
class Geometry:
    """Per-lattice race-geometry tables handed to every kernel call.

    Built once per lattice by the engines (the tables themselves are
    lru-cached there); read-only.  ``bpacked_t`` is the boundary-key
    tuple for scalar lookups, ``bpacked`` the same keys as an int64
    vector for array passes.
    """

    pair_base: np.ndarray
    depth_lut: np.ndarray
    bpacked: np.ndarray
    bpacked_t: tuple
    radix: int
    hops_div: int


def race(masks, s, i, b, geo: Geometry) -> np.ndarray:
    """Packed race winners for ``(lane, sink, base)`` triples in one
    broadcast pass (every requested sink holds its base bit, so the
    depth LUT's sentinel never compounds with the pair table's)."""
    # Sinks sharing a (lane, base) share the shifted-mask row and
    # its first-event depths; compute those once per unique pair.
    ukey, uidx = np.unique(
        s * np.int64(_MAX_LAYERS + 1) + b, return_inverse=True
    )
    us = ukey // (_MAX_LAYERS + 1)
    ub = ukey % (_MAX_LAYERS + 1)
    shifted = masks[us] >> ub.astype(np.uint64)[:, None]
    lsb = shifted & (np.uint64(0) - shifted)
    t = np.bitwise_count(lsb - _ONE).astype(np.intp)
    depth_keys = geo.depth_lut.take(t)
    best = (geo.pair_base[i] + depth_keys[uidx]).min(axis=1)
    # Two-step shift: b can reach 63 (a full uint64 Reg), where a
    # single shift by b + 1 would be undefined.
    own = (masks[s, i] >> b.astype(np.uint64)) >> _ONE
    own_lsb = own & (np.uint64(0) - own)
    vt = (np.bitwise_count(own_lsb - _ONE) + _ONE).astype(np.int64)
    vertical = np.where(
        own != 0, (vt * 2048 + vt) * geo.radix, NO_CANDIDATE
    )
    best = np.minimum(best, vertical)
    return np.minimum(best, geo.bpacked[i])


def valid_entries(entries, masks, s, i, b, geo: Geometry) -> np.ndarray:
    """Which cached winners still race to a live event bit."""
    radix = geo.radix
    present = entries >= 0
    src1 = entries % radix
    t_rel = (entries // radix) % 128
    target = np.where(src1 > 0, src1 - 1, i)
    boundary = (src1 == 0) & (t_rel == 0)
    # Clip the shift for absent entries (whose decoded fields are
    # garbage); present entries always stay within the 64-bit Reg.
    shift = np.minimum(b + t_rel, 63).astype(np.uint64)
    tbit = (masks[s, target] >> shift) & _ONE
    return present & (boundary | (tbit == _ONE))


def push_beats(i, j, t_rel, win, geo: Geometry) -> np.ndarray:
    """Which cached winners an event just pushed at unit ``j``,
    ``t_rel`` layers above the entry's base, out-races (element-wise,
    broadcasting) for sink ``i`` with packed winner ``win``.

    The event's pair key is ``pair_base[i, j] + t_rel * 2049 * radix``
    (its depth raises the arrival digit and fills the depth digit); in
    the sink's own Unit (``i == j``) it races as the vertical key
    ``t_rel * 2049 * radix``.  The comparison is exact, so both engines
    evict the same entries.
    """
    pair = np.where(i == j, 0, geo.pair_base[i, j])
    return pair + t_rel * (2049 * geo.radix) < win


def survey_need(
    masks, win, win_dirty, s, i, b, pos, n_top, geo: Geometry
) -> np.ndarray:
    """Exact per-lane minimum winner hops over the sink triples.

    Valid entries and missing races give a first minimum; a stale
    entry is a lower bound (matches only remove candidates), so
    only stale entries that could still beat the running minimum
    are re-raced — each pass races just the per-lane minimum
    bounds, which usually settles the minimum in one or two
    rounds.  The rest stay stale in the slab; the sweep handles
    them (timeout past the budget, validate when matchable).
    """
    hops_div = geo.hops_div
    need = np.full(n_top, 1 << 30, dtype=np.int64)
    entries = win[s, i, b]
    fresh = valid_entries(entries, masks, s, i, b, geo)
    hops = entries // hops_div >> 1
    np.minimum.at(need, pos[fresh], hops[fresh])
    missing = entries < 0
    if missing.any():
        raced = race(masks, s[missing], i[missing], b[missing], geo)
        win[s[missing], i[missing], b[missing]] = raced
        win_dirty[s[missing]] = True
        np.minimum.at(need, pos[missing], raced // hops_div >> 1)
    stale = ~fresh & ~missing
    bound_min = np.empty_like(need)
    while True:
        cand = stale & (hops < need[pos])
        if not cand.any():
            break
        bound_min[:] = 1 << 30
        np.minimum.at(bound_min, pos[cand], hops[cand])
        sel = cand & (hops == bound_min[pos])
        raced = race(masks, s[sel], i[sel], b[sel], geo)
        win[s[sel], i[sel], b[sel]] = raced
        np.minimum.at(need, pos[sel], raced // hops_div >> 1)
        stale[sel] = False
    return need


def _race_one(masks, lane: int, idx: int, b: int, geo: Geometry) -> int:
    """One sink's packed winner against the lane's live row (the scalar
    engine's per-sink race, the commit scan's mid-level re-race and the
    exact walk's per-hit race)."""
    row = masks[lane]
    shifted = row >> np.uint64(b)
    lsb = shifted & (np.uint64(0) - shifted)
    t = np.bitwise_count(lsb - _ONE).astype(np.intp)
    best = int((geo.pair_base[idx] + geo.depth_lut.take(t)).min())
    higher = int(row[idx]) >> (b + 1)
    if higher:
        vt = (higher & -higher).bit_length()
        cand = (vt * 2048 + vt) * geo.radix
        if cand < best:
            best = cand
    boundary = geo.bpacked_t[idx]
    return boundary if boundary < best else best
