"""Minimum-weight perfect matching (MWPM) baseline decoder.

This is the paper's accuracy reference (Fowler's MWPM [7]): match every
defect either to another defect or to the nearest rough (west/east)
boundary, minimising the total 3-D Manhattan weight, then project the
matching onto data-qubit corrections.

Implementation
--------------
We first apply the standard *useful-edge* reduction: a pair edge with
``w(a, b) >= bd(a) + bd(b)`` never needs to appear in an optimal
solution (replacing it by the two boundary matches cannot increase the
weight).  The graph of useful edges decomposes the problem into
independent connected components, each solved exactly with networkx's
blossom implementation on the usual boundary-copy gadget:

    defect i --- defect j          weight w(i, j)   (useful edges only)
    defect i --- copy b_i          weight bd(i)
    copy b_i --- copy b_j          weight 0         (all pairs)

Components larger than ``exact_component_limit`` fall back to a
Hungarian-assignment seed (mutual pairs of the optimal assignment on the
doubled problem) polished by an exhaustive-pairwise 2-opt; measured
against blossom on realistic giant components this lands within ~0-2% of
the optimal weight (see ``tests/test_mwpm.py``).  Fallback invocations
are counted on the decoder so experiments can report when it fired.

``networkx`` is imported on the first blossom solve, not with this
module: importing :mod:`repro.decoders` (as the decode service does)
never loads it, and only code that actually runs an MWPM decode pays
for it.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.decoders.base import (
    BOUNDARY_EAST,
    BOUNDARY_WEST,
    Coord,
    DecodeResult,
    Decoder,
    Match,
    correction_from_matches,
    defects_of,
)
from repro.surface_code.lattice import PlanarLattice

__all__ = ["MwpmDecoder", "pair_distance"]


def pair_distance(a: Coord, b: Coord) -> int:
    """3-D Manhattan distance between defects."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


class MwpmDecoder(Decoder):
    """Exact MWPM decoder (with a documented large-component fallback).

    Parameters
    ----------
    exact_component_limit:
        Components with more defects than this use the greedy + 2-opt
        fallback instead of blossom.  The default keeps worst-case decode
        time bounded near threshold; below threshold components are tiny
        and everything is exact.
    """

    name = "mwpm"

    def __init__(self, exact_component_limit: int = 60):
        if exact_component_limit < 2:
            raise ValueError("exact_component_limit must be >= 2")
        self.exact_component_limit = exact_component_limit
        self.fallback_uses = 0

    # ------------------------------------------------------------------
    def decode(self, lattice: PlanarLattice, events: np.ndarray) -> DecodeResult:
        defects = defects_of(events, lattice)
        matches = self.match_defects(lattice, defects)
        return DecodeResult(
            matches=matches,
            correction=correction_from_matches(lattice, matches),
        )

    def match_defects(self, lattice: PlanarLattice, defects: list[Coord]) -> list[Match]:
        """Match a defect list (exposed for direct use and testing)."""
        if not defects:
            return []
        components = _useful_components(lattice, defects)
        matches: list[Match] = []
        for comp in components:
            if len(comp) <= self.exact_component_limit:
                matches.extend(_blossom_component(lattice, comp))
            else:
                self.fallback_uses += 1
                matches.extend(_greedy_two_opt(lattice, comp))
        return matches


# ----------------------------------------------------------------------
# Useful-edge decomposition
# ----------------------------------------------------------------------
def _boundary(lattice: PlanarLattice, d: Coord) -> tuple[int, str]:
    west = lattice.west_distance(d[1])
    east = lattice.east_distance(d[1])
    if west <= east:
        return west, BOUNDARY_WEST
    return east, BOUNDARY_EAST


def _useful_components(
    lattice: PlanarLattice, defects: list[Coord]
) -> list[list[Coord]]:
    """Connected components of the useful-pair-edge graph."""
    n = len(defects)
    bd = [_boundary(lattice, d)[0] for d in defects]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if pair_distance(defects[i], defects[j]) < bd[i] + bd[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[Coord]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(defects[i])
    return list(groups.values())


# ----------------------------------------------------------------------
# Exact solve per component
# ----------------------------------------------------------------------
def _blossom_component(lattice: PlanarLattice, comp: list[Coord]) -> list[Match]:
    if len(comp) == 1:
        _, side = _boundary(lattice, comp[0])
        return [Match("boundary", comp[0], side=side)]
    import networkx as nx

    graph = nx.Graph()
    n = len(comp)
    bd = [_boundary(lattice, d) for d in comp]
    for i in range(n):
        graph.add_edge(("d", i), ("b", i), weight=bd[i][0])
    for i, j in itertools.combinations(range(n), 2):
        w = pair_distance(comp[i], comp[j])
        if w < bd[i][0] + bd[j][0]:
            graph.add_edge(("d", i), ("d", j), weight=w)
        graph.add_edge(("b", i), ("b", j), weight=0)
    mate = nx.min_weight_matching(graph, weight="weight")
    matches: list[Match] = []
    for u, v in mate:
        if u[0] == "b" and v[0] == "b":
            continue
        if u[0] == "b":
            u, v = v, u
        if v[0] == "d":
            matches.append(Match("pair", comp[u[1]], comp[v[1]]))
        else:
            matches.append(Match("boundary", comp[u[1]], side=bd[u[1]][1]))
    return matches


# ----------------------------------------------------------------------
# Fallback for oversized components: assignment seed + 2-opt refinement
# ----------------------------------------------------------------------
def _all_partitions(indices: tuple[int, ...]):
    """Every partition of ``indices`` into pairs and singletons."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for tail in _all_partitions(rest):
        yield ((first, None),) + tail
    for pos, j in enumerate(rest):
        reduced = rest[:pos] + rest[pos + 1:]
        for tail in _all_partitions(reduced):
            yield ((first, j),) + tail


def _assignment_seed(
    comp: list[Coord], bd: list[tuple[int, str]]
) -> list[tuple[int, int | None]]:
    """Seed groups from a Hungarian assignment on the doubled problem.

    Nodes 0..n-1 are defects, n..2n-1 their boundary copies.  The
    optimal assignment's *mutual* decisions (sigma(i) = j and
    sigma(j) = i, or defect <-> own copy) are near-optimal matching
    decisions capturing long-range structure greedy misses; the few
    non-mutual leftovers are paired greedily afterwards.
    """
    from scipy.optimize import linear_sum_assignment

    n = len(comp)
    big = 10 ** 6
    cost = np.full((2 * n, 2 * n), float(big))
    for i in range(n):
        cost[i, n + i] = cost[n + i, i] = bd[i][0]
        for j in range(i + 1, n):
            w = pair_distance(comp[i], comp[j])
            if w < bd[i][0] + bd[j][0]:
                cost[i, j] = cost[j, i] = w
    cost[n:, n:] = 0.0
    _, sigma = linear_sum_assignment(cost)

    groups: list[tuple[int, int | None]] = []
    used: set[int] = set()
    for i in range(n):
        if i in used:
            continue
        target = int(sigma[i])
        if target == n + i and int(sigma[n + i]) == i:
            groups.append((i, None))
            used.add(i)
        elif target < n and int(sigma[target]) == i:
            groups.append((i, target))
            used.update((i, target))
    leftovers = [i for i in range(n) if i not in used]
    # Greedy over the leftovers (small set): cheapest option first.
    options: list[tuple[int, int, int, int | None]] = []
    for pos, i in enumerate(leftovers):
        options.append((bd[i][0], 1, i, None))
        for j in leftovers[pos + 1:]:
            w = pair_distance(comp[i], comp[j])
            if w < bd[i][0] + bd[j][0]:
                options.append((w, 0, i, j))
    options.sort()
    alive = set(leftovers)
    for _, _, i, j in options:
        if i not in alive:
            continue
        if j is None:
            groups.append((i, None))
            alive.discard(i)
        elif j in alive:
            groups.append((i, j))
            alive.discard(i)
            alive.discard(j)
    return groups


def _greedy_two_opt(lattice: PlanarLattice, comp: list[Coord]) -> list[Match]:
    n = len(comp)
    bd = [_boundary(lattice, d) for d in comp]

    # The 2-opt loop evaluates pair weights millions of times on large
    # components; tabulate them once from the lattice's cached pairwise
    # Manhattan table (the same table the engine geometry cache builds)
    # plus the temporal span, instead of recomputing pair_distance.
    anc = np.fromiter(
        (r * lattice.cols + c for r, c, _ in comp), np.int64, n
    )
    ts = np.fromiter((t for _, _, t in comp), np.int64, n)
    pair_w = (
        lattice.pairwise_manhattan[anc[:, None], anc[None, :]].astype(np.int64)
        + np.abs(ts[:, None] - ts[None, :])
    ).tolist()

    def weight_of(i: int, j: int | None) -> int:
        return bd[i][0] if j is None else pair_w[i][j]

    def centroid(group: tuple[int, int | None]) -> tuple[float, float, float]:
        members = [m for m in group if m is not None]
        return tuple(
            sum(comp[m][axis] for m in members) / len(members) for axis in range(3)
        )

    groups = _assignment_seed(comp, bd)

    # 2-opt refinement: exhaustively re-partition pairs of groups (at
    # most 4 defects at a time, so each local move is exact).  On very
    # large components only spatially nearby group pairs are attempted —
    # distant re-pairings cannot be cheaper than the boundary options
    # the seed already considered.
    locality_cap = len(groups) > 120
    improvements = 0
    max_improvements = 20 * n + 100
    improved = True
    while improved and improvements < max_improvements:
        improved = False
        centroids = [centroid(g) for g in groups]
        gi = 0
        while gi < len(groups):
            gj = gi + 1
            while gj < len(groups):
                if locality_cap:
                    ca, cb = centroids[gi], centroids[gj]
                    if abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]) + abs(ca[2] - cb[2]) > 10:
                        gj += 1
                        continue
                members = tuple(
                    x for x in groups[gi] + groups[gj] if x is not None
                )
                current = sum(weight_of(i, j) for i, j in (groups[gi], groups[gj]))
                best_plan, best_w = None, current
                for plan in _all_partitions(members):
                    w = sum(weight_of(i, j) for i, j in plan)
                    if w < best_w:
                        best_plan, best_w = plan, w
                if best_plan is None:
                    gj += 1
                    continue
                replacement = list(best_plan)
                groups[gi] = replacement.pop(0)
                centroids[gi] = centroid(groups[gi])
                if replacement:
                    groups[gj] = replacement.pop(0)
                    centroids[gj] = centroid(groups[gj])
                    for extra in replacement:
                        groups.append(extra)
                        centroids.append(centroid(extra))
                    gj += 1
                else:
                    groups.pop(gj)
                    centroids.pop(gj)
                    # Do not advance gj: the next group shifted into it.
                improved = True
                improvements += 1
                if improvements >= max_improvements:
                    break
            if improvements >= max_improvements:
                break
            gi += 1
    matches: list[Match] = []
    for i, j in groups:
        if j is None:
            matches.append(Match("boundary", comp[i], side=bd[i][1]))
        else:
            matches.append(Match("pair", comp[i], comp[j]))
    return matches
