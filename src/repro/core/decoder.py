"""Batch/2-D decoder facade over the QECOOL engine.

``QecoolDecoder`` implements the package-wide
:class:`repro.decoders.base.Decoder` interface so it can be swapped
against the MWPM / Union-Find / greedy baselines in every experiment:

- ``thv=-1`` with an event stack of ``d + 1`` layers is the paper's
  **batch-QECOOL** (Fig. 4),
- a single-layer stack is the **2-D** decoder used for Table IV's 2-D
  threshold column.

The online decoder, which interleaves decoding with measurement arrivals
under a finite clock, lives in :mod:`repro.core.online`.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import QecoolEngine
from repro.core.engine_batch import QecoolEngineBatch
from repro.decoders.base import DecodeResult, Decoder, correction_from_matches
from repro.surface_code.lattice import PlanarLattice

__all__ = ["BATCH_DECODE_CUTOFF", "QecoolDecoder"]

BATCH_DECODE_CUTOFF = 64
"""Minimum batch size for the shot-major drain path; smaller batches
cannot amortise the lock-step machinery and fall back to the scalar
engine (bit-identical either way).  Set at the measured break-even of
the committed ``drain_batch_vs_scalar_d9_c*`` chunk-scaling points
(~1.0x at 64 shots, 0.6x at 16)."""


class QecoolDecoder(Decoder):
    """Spike-based greedy matching decoder (batch mode).

    Parameters
    ----------
    thv:
        Vertical look-ahead threshold handed to the engine; ``-1``
        (default) is the paper's batch configuration.
    nlimit:
        Optional cap on the Controller's growing hop budget.
    """

    name = "qecool"

    def __init__(self, thv: int = -1, nlimit: int | None = None):
        self.thv = thv
        self.nlimit = nlimit

    def decode(self, lattice: PlanarLattice, events: np.ndarray) -> DecodeResult:
        events = np.asarray(events, dtype=np.uint8)
        if events.ndim == 1:
            events = events[None, :]
        engine = QecoolEngine(lattice, thv=self.thv, nlimit=self.nlimit)
        for row in events:
            engine.push_layer(row)
        engine.decode_loaded()
        return DecodeResult(
            matches=engine.matches,
            correction=correction_from_matches(lattice, engine.matches),
            cycles=engine.cycles,
            layer_cycles=list(engine.layer_cycles),
        )

    def decode_batch(
        self, lattice: PlanarLattice, events: np.ndarray
    ) -> list[DecodeResult]:
        """Drain a whole chunk through the shot-major batch engine.

        One :class:`~repro.core.engine_batch.QecoolEngineBatch` lane per
        shot: the layer loads, winner races and Controller sweeps run
        lock-step across the chunk, bit-identical to :meth:`decode` per
        stack (the per-shot engine remains the oracle, and the path for
        batches under :data:`BATCH_DECODE_CUTOFF`).
        """
        events = np.asarray(events, dtype=np.uint8)
        if events.ndim != 3 or events.shape[0] < BATCH_DECODE_CUTOFF:
            # Base-class validation and per-shot loop (one source for
            # both the shape contract and the scalar fallback).
            return super().decode_batch(lattice, events)
        shots = events.shape[0]
        batch = QecoolEngineBatch(
            lattice, thv=self.thv, nlimit=self.nlimit, capacity=shots
        )
        lanes = np.fromiter(
            (batch.alloc_lane() for _ in range(shots)), np.int64, shots
        )
        for t in range(events.shape[1]):
            batch.push_layers(lanes, events[:, t])
        batch.begin_drain(lanes)
        batch.run_to_idle(lanes)
        results = []
        for lane in lanes.tolist():
            matches = batch.matches_of(lane)
            results.append(
                DecodeResult(
                    matches=matches,
                    correction=correction_from_matches(lattice, matches),
                    cycles=batch.cycles_of(lane),
                    layer_cycles=list(batch.layer_cycles_of(lane)),
                )
            )
        return results
