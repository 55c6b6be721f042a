"""Sliding-window batch decoding: the middle ground the paper skips.

The paper contrasts two extremes: **batch** (wait for all ``d`` rounds,
decode once) and **online** (decode every layer with ``thv``
look-ahead).  Real control stacks often use a third mode — *sliding
windows*: decode ``window`` layers at a time, commit only the oldest
``commit`` layers' matches, and slide forward so later windows can
revise tentative decisions near the leading edge.

This module implements that mode over the same engine, as a baseline
for QECOOL's claim that per-layer online decoding is enough: if the
window decoder at ``window = thv + 1`` performs like online QECOOL, the
paper's streaming design gives up nothing relative to conventional
windowed decoding (tested in ``tests/test_window.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import QecoolEngine
from repro.decoders.base import (
    DecodeResult,
    Decoder,
    Match,
    correction_from_matches,
)
from repro.surface_code.lattice import PlanarLattice

__all__ = ["SlidingWindowDecoder"]


class SlidingWindowDecoder(Decoder):
    """QECOOL matching applied over overlapping temporal windows.

    Parameters
    ----------
    window:
        Layers visible per decode step (must be >= 1).
    commit:
        Layers whose matches are committed each step (1 <= commit <=
        window).  Matches touching only committed layers are kept; the
        others are discarded and re-derived when their layers commit.
    """

    name = "qecool-window"

    def __init__(self, window: int = 4, commit: int = 1):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 1 <= commit <= window:
            raise ValueError(f"commit must be in [1, window], got {commit}")
        self.window = window
        self.commit = commit

    def decode(self, lattice: PlanarLattice, events: np.ndarray) -> DecodeResult:
        events = np.asarray(events, dtype=np.uint8)
        if events.ndim == 1:
            events = events[None, :]
        n_layers = events.shape[0]
        remaining = events.copy()
        matches: list[Match] = []
        total_cycles = 0
        start = 0
        while start < n_layers:
            stop = min(start + self.window, n_layers)
            commit_stop = stop if stop == n_layers else min(
                start + self.commit, n_layers
            )
            engine = QecoolEngine(lattice)
            for row in remaining[start:stop]:
                engine.push_layer(row)
            engine.decode_loaded()
            total_cycles += engine.cycles
            for match in engine.matches:
                absolute = _shift_match(match, start)
                earliest = min(t for (_, _, t) in absolute.endpoints())
                # Commit any match touching the commit region — including
                # straddlers, so no committed-layer defect is ever left
                # unresolved; matches living entirely in the tentative
                # tail are discarded and re-derived in the next window.
                if earliest < commit_stop:
                    matches.append(absolute)
                    for (r, c, t) in absolute.endpoints():
                        remaining[t, lattice.ancilla_index(r, c)] = 0
            start = commit_stop
        return DecodeResult(
            matches=matches,
            correction=correction_from_matches(lattice, matches),
            cycles=total_cycles,
        )


def _shift_match(match: Match, offset: int) -> Match:
    """Re-express a window-relative match in absolute layers."""
    a = (match.a[0], match.a[1], match.a[2] + offset)
    if match.kind == "boundary":
        return Match("boundary", a, side=match.side)
    b = (match.b[0], match.b[1], match.b[2] + offset)
    return Match("pair", a, b)
