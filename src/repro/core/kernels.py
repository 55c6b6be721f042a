"""The engines' hot kernels.

The QECOOL engines call seven numeric hot kernels from this module:
the packed winner races (:func:`race`, :func:`winners_bulk`), the
cache-validity scan (:func:`valid_entries`), the survey's stale-bound
refinement (:func:`survey_need`), the commit-level conflict scan
(:func:`commit_scan`), and the idle-layer helpers
(:func:`exposed_any`, :func:`charge_empty`).  Each is a pure function
of the slab state it is handed, except that it may write the winner
slab (cache contents are never observable).  The engines apply every
observable mutation themselves.

uint64 discipline: Reg masks can have bit 63 set (``MAX_LAYERS`` =
64), so every mask temporary stays ``np.uint64``; mixing with int64
would promote to float64 under NEP 50.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    cols: int


class CommitScan(NamedTuple):
    """Result of one commit-level conflict scan (see :func:`commit_scan`).
    All observable mutations are returned as records for the engine to
    apply; the kernel itself writes only the winner slab (cache state,
    never observable).
    """

    rec_pos: np.ndarray    # position in `cur` of each match record
    rec_u: np.ndarray      # sink unit (flat index)
    rec_t: np.ndarray      # sink absolute depth
    rec_u2: np.ndarray     # source unit, -1 for boundary matches
    rec_t2: np.ndarray     # source absolute depth (boundary: unused)
    rec_port: np.ndarray   # boundary port code (pairs: unused)
    g_pos: np.ndarray      # one entry per scanned lane: position in `cur`
    g_total: np.ndarray    # ... total cycles charged at this level
    g_l0: np.ndarray       # ... layer-0 events consumed
    g_match: np.ndarray    # ... any match committed (bool)
    fc_pos: np.ndarray     # row-occupancy decrements: position in `cur`
    fc_row: np.ndarray     # ... emptied row index
    clear_pos: np.ndarray  # Reg bit clears: position in `cur`
    clear_unit: np.ndarray
    clear_bits: np.ndarray  # uint64 bit masks to clear


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


def _race_one(
    masks, lane: int, idx: int, b: int, pending: dict[int, int],
    geo: Geometry,
) -> int:
    """One sink's packed winner against the lane's row with pending
    commit clears masked out (mid-level re-races see the true
    post-commit state)."""
    row = masks[lane]
    if pending:
        row = row.copy()
        for u, bits in pending.items():
            row[u] = row[u] & ~np.uint64(bits)
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


def commit_scan(
    masks, win, row_counts, popped, cur, b, rel, units,
    entries, hops, matchable, budget, rowcost, geo: Geometry,
) -> CommitScan:
    """Resolve one base-depth sub-sweep per deadline-safe lane with
    matchable hits, without per-action Python.

    The races, validity checks and winner-field decodes arrive
    pre-vectorized; what remains sequential per lane is only the
    conflict structure — a hit consumed as an earlier match's
    source is skipped, a hit whose pre-raced winner lost its target
    event re-races against the post-commit state — which reduces to
    set lookups over plain ints.  Observable mutations come back as
    flat records; only the winner slab is written here.
    """
    cols = geo.cols
    radix = geo.radix
    radix128 = 128 * radix
    hops_div = geo.hops_div
    # Hits past the budget always time out (stale entries are lower
    # bounds): their charges are lumped per lane; only the
    # matchable hits need the sequential conflict scan.  Hit order
    # equals unit order, so "consumed before the token reached it"
    # is a plain unit-index comparison when adjusting the lump.
    n_timeout = np.bincount(rel[~matchable], minlength=len(cur))
    sel = matchable
    rel_m, units_m = rel[sel], units[sel]
    entries_m, hops_m = entries[sel], hops[sel]
    units_l = units_m.tolist()
    hops_l = hops_m.tolist()
    entries_l = entries_m.tolist()
    rel_l = rel_m.tolist()
    # Bulk-gather the masks the scan will consult — every matchable
    # hit's own unit and its pre-raced winner's target unit — when
    # the hit volume amortises the vector passes; tiny batches read
    # lazily per commit instead (re-raced targets always do).
    if rel_m.size >= 32:
        s_flat = cur[rel_m]
        src1_v = entries_m % radix
        tgt_v = np.where(src1_v > 0, src1_v - 1, units_m)
        mask_hit = masks[s_flat, units_m].tolist()
        mask_tgt = masks[s_flat, tgt_v].tolist()
        tgt_l = tgt_v.tolist()
    else:
        mask_hit = mask_tgt = tgt_l = None
    rec_pos: list[int] = []
    rec_u: list[int] = []
    rec_t: list[int] = []
    rec_u2: list[int] = []
    rec_t2: list[int] = []
    rec_port: list[int] = []
    g_pos: list[int] = []
    g_total: list[int] = []
    g_l0: list[int] = []
    g_match: list[bool] = []
    fc_pos: list[int] = []
    fc_row: list[int] = []
    clear_pos: list[int] = []
    clear_units: list[int] = []
    clear_bits: list[int] = []
    lo = 0
    n = len(rel_l)
    while lo < n:
        pos = rel_l[lo]
        hi = lo
        while hi < n and rel_l[hi] == pos:
            hi += 1
        lane = int(cur[pos])
        bgt = int(budget[pos])
        t_cost = 2 * bgt + 2
        pop_l = int(popped[lane])
        mset = set(units_l[lo:hi])
        pending: dict[int, int] = {}
        orig: dict[int, int] = {}
        # Consumed events as packed ints: unit << 6 | depth (depths
        # fit MAX_LAYERS = 64).
        consumed: set[int] = set()
        cleared_units: set[int] = set()
        full_clears: list[tuple[int, int]] = []  # (hit row, unit row)
        cost = 0
        l0_dec = 0
        skips = 0  # timeout hits consumed before the token's arrival
        any_m = False
        for idx in range(lo, hi):
            u = units_l[idx]
            if (u << 6) | b in consumed:
                continue  # consumed as a source earlier this level
            w = entries_l[idx]
            h = hops_l[idx]
            s1 = w % radix
            tr = w // radix % 128
            if s1:
                tu, td, boundary, port = s1 - 1, b + tr, False, 0
            elif tr:
                tu, td, boundary, port = u, b + tr, False, 0
            else:
                tu, td, boundary = -1, -1, True
                port = w // radix128 % 8
            if u not in orig:
                orig[u] = (
                    mask_hit[idx]
                    if mask_hit is not None
                    else int(masks[lane, u])
                )
            if not boundary:
                if (
                    mask_tgt is not None
                    and tu == tgt_l[idx]
                    and tu not in orig
                ):
                    orig[tu] = mask_tgt[idx]
                if (tu << 6) | td in consumed:
                    # The pre-raced winner's target was consumed by
                    # an earlier commit: re-race against the true
                    # post-commit state (what the token would see).
                    w = _race_one(masks, lane, u, b, pending, geo)
                    win[lane, u, b] = w
                    h = w // hops_div >> 1
                    if h > bgt:
                        cost += t_cost
                        continue
                    s1 = w % radix
                    tr = w // radix % 128
                    if s1:
                        tu, td, boundary = s1 - 1, b + tr, False
                    elif tr:
                        tu, td, boundary = u, b + tr, False
                    else:
                        boundary = True
                        port = w // radix128 % 8
                if not boundary and tu not in orig:
                    orig[tu] = int(masks[lane, tu])
            # Commit: clear the sink bit (and the source event).
            any_m = True
            pu = pending.get(u, 0) | (1 << b)
            pending[u] = pu
            consumed.add((u << 6) | b)
            if b == 0:
                l0_dec += 1
            r_hit = u // cols
            if orig[u] & ~pu == 0 and u not in cleared_units:
                cleared_units.add(u)
                full_clears.append((r_hit, r_hit))
            if boundary:
                rec_pos.append(pos)
                rec_u.append(u)
                rec_t.append(pop_l + b)
                rec_u2.append(-1)
                rec_t2.append(-1)
                rec_port.append(port)
                cost += t_cost
                continue
            pt = pending.get(tu, 0) | (1 << td)
            pending[tu] = pt
            consumed.add((tu << 6) | td)
            if td == b and tu > u and tu not in mset:
                # A later timeout hit just lost its bit: the token
                # will skip it, so it leaves the timeout lump.
                skips += 1
            if td == 0:
                l0_dec += 1
            if orig[tu] & ~pt == 0 and tu not in cleared_units:
                cleared_units.add(tu)
                full_clears.append((r_hit, tu // cols))
            rec_pos.append(pos)
            rec_u.append(u)
            rec_t.append(pop_l + b)
            rec_u2.append(tu)
            rec_t2.append(pop_l + td)
            rec_port.append(0)
            cost += 2 * h + 2
        cost += (int(n_timeout[pos]) - skips) * t_cost
        # Row-token charges: the static scan cost unless a commit
        # emptied a unit's row before the token reached it.
        late = [rc for rh, rc in full_clears if rc > rh]
        if late:
            row_live = row_counts[lane].tolist()
            for rc in late:
                row_live[rc] -= 1
            total = cost + sum(
                cols if live > 0 else 1 for live in row_live
            )
        else:
            total = cost + int(rowcost[pos])
        g_pos.append(pos)
        g_total.append(total)
        g_l0.append(l0_dec)
        g_match.append(any_m)
        for rh, rc in full_clears:
            fc_pos.append(pos)
            fc_row.append(rc)
        for u, bits in pending.items():
            clear_pos.append(pos)
            clear_units.append(u)
            clear_bits.append(bits)
        lo = hi
    return CommitScan(
        np.asarray(rec_pos, dtype=np.int64),
        np.asarray(rec_u, dtype=np.int64),
        np.asarray(rec_t, dtype=np.int64),
        np.asarray(rec_u2, dtype=np.int64),
        np.asarray(rec_t2, dtype=np.int64),
        np.asarray(rec_port, dtype=np.int64),
        np.asarray(g_pos, dtype=np.int64),
        np.asarray(g_total, dtype=np.int64),
        np.asarray(g_l0, dtype=np.int64),
        np.asarray(g_match, dtype=bool),
        np.asarray(fc_pos, dtype=np.int64),
        np.asarray(fc_row, dtype=np.int64),
        np.asarray(clear_pos, dtype=np.int64),
        np.asarray(clear_units, dtype=np.int64),
        np.asarray(clear_bits, dtype=np.uint64),
    )


def winners_bulk(masks, live, sinks, bases, geo: Geometry) -> np.ndarray:
    """The scalar engine's broadcast winner race: one
    (sinks x live) pass packing arrival keys into int64, reduced
    with one min, then raced against the packed vertical and
    boundary candidates — bit-equivalent to the scalar
    ``cand < best`` scan."""
    radix = geo.radix
    b_arr = bases.astype(np.uint64)
    shifted = masks[live][None, :] >> b_arr[:, None]
    lsb = shifted & (np.uint64(0) - shifted)
    # Lowest-set-bit index; 64 (out of range) where no event sits
    # at/above the base — which the depth LUT maps straight to the
    # no-candidate sentinel, so empty Units fall out of the race
    # (the sink itself always has t_rel == 0 at its own base, so
    # the sentinel diagonal never compounds with the LUT's).
    t_rel = np.bitwise_count(lsb - _ONE)
    depth_key = geo.depth_lut.take(t_rel)
    best_pair = (geo.pair_base[sinks][:, live] + depth_key).min(axis=1)
    own = masks[sinks] >> (b_arr + _ONE)
    own_lsb = own & (np.uint64(0) - own)
    v_t = np.bitwise_count(own_lsb - _ONE).astype(np.int64) + 1
    vertical = np.where(
        own != 0, (v_t * 16 * 128 + v_t) * radix, NO_CANDIDATE
    )
    best = np.minimum(best_pair, vertical)
    return np.minimum(best, geo.bpacked[sinks])


def exposed_any(masks, sel, exposed) -> np.ndarray:
    """Any Reg bit at the exposed depth, per selected lane."""
    return (
        (masks[sel] >> exposed.astype(np.uint64)[:, None]) & _ONE
    ).any(axis=1)


def charge_empty(cycles, popped, cycles_at_last_pop, lanes, cost):
    """Charge one absorbed empty layer per lane; returns deltas."""
    cycles[lanes] += cost
    popped[lanes] += 1
    deltas = cycles[lanes] - cycles_at_last_pop[lanes]
    cycles_at_last_pop[lanes] = cycles[lanes]
    return deltas
