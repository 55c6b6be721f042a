"""Decode sessions: the unit of work the streaming service schedules.

A :class:`SessionSpec` names everything one logical-qubit decode stream
needs — lattice distance, noise, round budget, decoder clock, Reg
shape, seed — in a JSON-safe form shared by the in-process API and the
TCP front end.  A :class:`DecodeSession` is one accepted spec moving
through the scheduler's lifecycle (``QUEUED -> ACTIVE -> DONE``; a
spec refused under backpressure never becomes a session); its ``shot``
is the streaming engine state (:class:`repro.core.online.OnlineShot`
for online sessions, :class:`WindowShot` for sliding-window sessions)
and its ``result`` the final :class:`SessionResult`.

Two session modes share the scheduler's micro-batches:

- ``online`` — QECOOL streaming decode under a finite clock, the
  paper's Section V-B setting.  Bit-identical to
  :func:`repro.core.online.run_online_trial` on the same seed.
- ``window`` — the sliding-window baseline
  (:class:`repro.core.window.SlidingWindowDecoder`): rounds are
  ingested through the same batched noise/syndrome passes, the decode
  itself runs windowed at end of stream (batch semantics, no physical
  feedback).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.online import (
    OnlineConfig,
    OnlineOutcome,
    OnlineShot,
    StreamingBlock,
    StreamingShotState,
)
from repro.core.engine import MAX_LAYERS
from repro.core.window import SlidingWindowDecoder
from repro.decoders.base import Match
from repro.surface_code.lattice import PlanarLattice
from repro.surface_code.noise import NoiseModel

__all__ = [
    "MAX_D",
    "MAX_LINE_BYTES",
    "MAX_ROUNDS",
    "DecodeSession",
    "SessionResult",
    "SessionSpec",
    "SessionState",
    "WindowOutcome",
    "WindowShot",
]

MAX_LINE_BYTES = 1 << 16
"""Longest request line (newline excluded) the TCP front end reads.

The server passes it to ``asyncio.start_server`` as the stream limit
and answers a longer line with one ``bad-json`` error before closing
that connection; :meth:`ServiceClient.decode_many
<repro.service.client.ServiceClient.decode_many>` splits a wave into
array lines that fit.  One request object encodes to ~250 bytes, so a
line holds ~260 decodes."""

MAX_D = 31
"""Largest lattice distance a spec may ask for.

Every distance a service admits builds per-lattice geometry tables,
cached for the life of the process, that grow with ``N**2`` for
``N = d * (d - 1)`` ancillas: the int64 pairwise-Manhattan and
pair-base tables take 8 bytes per ``N**2`` entry each, the int16/uint8
port and boundary tables ~5 more.  At ``d = 31`` (``N = 930``) each
int64 table is 6.6 MiB, and one 1-round session in a fresh scheduler
retains 38 MiB (tracemalloc, batch-engine lane slabs included).  At
``d = 301`` one int64 table alone is 60.8 GiB, so admission would
raise ``MemoryError`` inside the shared scheduler tick.  The paper's
largest distance is 13."""

MAX_ROUNDS = 100_000
"""Most noisy rounds a spec may ask for.

A session's time, and its ``window``-mode event layers, grow
linearly with its rounds; its noise takes one bounded window of slab
row whatever its length.  The bound keeps one request from pinning a
lane without end."""


@lru_cache(maxsize=256)
def _online_config(
    frequency_hz: float | None,
    measurement_interval_s: float,
    thv: int,
    reg_size: int | None,
) -> OnlineConfig:
    return OnlineConfig(
        frequency_hz=frequency_hz,
        measurement_interval_s=measurement_interval_s,
        thv=thv,
        reg_size=reg_size,
    )


@dataclass(frozen=True)
class SessionSpec:
    """Everything one decode stream needs, JSON-round-trippable.

    ``seed`` anchors the session's noise substream: an online session
    with seed ``s`` decodes bit-identically to
    ``run_online_trial(..., rng=s)``.  ``n_rounds=None`` defaults to
    ``d`` noisy rounds (the paper's convention).  ``noise`` selects a
    registered noise family by name (default phenomenological at
    ``p``); ``noise_params`` ride along to its factory.
    """

    d: int
    p: float
    seed: int
    n_rounds: int | None = None
    mode: str = "online"
    thv: int = 3
    reg_size: int | None = 7
    frequency_hz: float | None = 2.0e9
    measurement_interval_s: float = 1.0e-6
    q: float | None = None
    noise: str | None = None
    noise_params: dict | None = None
    window: int = 4
    commit: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` on an unusable spec.

        Everything a remote client can pick is type- and range-checked
        here (every violation is a ``ValueError``, never a ``TypeError``) —
        the scheduler is shared, so a spec that would raise inside
        ``step()`` (e.g. an engine exceeding ``MAX_LAYERS`` stored
        layers) must be rejected at admission instead.
        """
        # Exact ``int``/``float`` (what JSON decodes to) pass on a type
        # test; anything else takes the ``numbers`` ABC checks.
        for name in ("d", "seed", "n_rounds", "thv", "reg_size", "window", "commit"):
            value = getattr(self, name)
            if type(value) is int or (
                value is None and name in ("n_rounds", "reg_size")
            ):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("p", "q", "frequency_hz", "measurement_interval_s"):
            value = getattr(self, name)
            kind = type(value)
            if kind is float:
                if math.isfinite(value):
                    continue
            elif kind is int or (value is None and name in ("q", "frequency_hz")):
                continue
            # Python ints are finite but may overflow a float conversion.
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not (isinstance(value, int) or math.isfinite(value))
            ):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in ("online", "window"):
            raise ValueError(f"mode must be 'online' or 'window', got {self.mode!r}")
        if not 3 <= self.d <= MAX_D or self.d % 2 == 0:
            raise ValueError(
                f"d must be an odd distance in [3, {MAX_D}], got {self.d}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be a probability, got {self.p}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(
                f"n_rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}"
            )
        if self.thv < -1:
            raise ValueError(f"thv must be >= -1, got {self.thv}")
        if self.reg_size is not None and not 1 <= self.reg_size <= MAX_LAYERS:
            raise ValueError(
                f"reg_size must be in [1, {MAX_LAYERS}], got {self.reg_size}"
            )
        if self.frequency_hz is not None and not self.frequency_hz > 0:
            raise ValueError(
                f"frequency_hz must be positive or None, got {self.frequency_hz}"
            )
        if not self.measurement_interval_s > 0:
            raise ValueError(
                f"measurement_interval_s must be positive, got "
                f"{self.measurement_interval_s}"
            )
        if self.mode == "online" and self.reg_size is None and (
            self.rounds + 1 > MAX_LAYERS
        ):
            # An unbounded Reg may hold every layer at once under a slow
            # clock; the array engine caps stored layers at MAX_LAYERS.
            raise ValueError(
                f"an unbounded-Reg online session stores up to n_rounds + 1 "
                f"layers; need n_rounds <= {MAX_LAYERS - 1}, got {self.rounds}"
            )
        if self.window < 1 or not 1 <= self.commit <= self.window:
            raise ValueError(
                f"need window >= 1 and 1 <= commit <= window, got "
                f"window={self.window} commit={self.commit}"
            )
        if self.window > MAX_LAYERS:
            raise ValueError(
                f"window decoding loads up to `window` layers at once; need "
                f"window <= {MAX_LAYERS}, got {self.window}"
            )
        if self.q is not None and not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be a probability or None, got {self.q}")
        if self.noise_params is not None and not isinstance(
            self.noise_params, dict
        ):
            raise ValueError(
                f"noise_params must be a dict, got "
                f"{type(self.noise_params).__name__}"
            )
        if self.noise is not None or self.noise_params is not None:
            # Resolve the noise model *now*: the scheduler tick is
            # shared across tenants, so a spec whose noise factory
            # would raise inside `_admit()` (unknown family, bad
            # parameters) must be rejected at the transport instead of
            # killing everyone's step().
            from repro.experiments.montecarlo import resolve_noise

            try:
                resolve_noise(
                    self.noise, "phenomenological", self.p,
                    q=self.q, noise_params=self.noise_params,
                )
            except ValueError:
                raise
            except (TypeError, KeyError) as exc:
                raise ValueError(f"unusable noise spec: {exc}") from exc

    @property
    def rounds(self) -> int:
        """Noisy rounds decoded (``n_rounds`` defaulting to ``d``)."""
        return self.d if self.n_rounds is None else self.n_rounds

    @property
    def shape_key(self) -> int:
        """Micro-batch grouping key.

        Sessions batch by *lattice geometry* alone: engine state is
        session-granular, so sessions with different ``thv`` /
        ``reg_size`` / clocks — and window sessions — advance in the
        same lock-step batch, and dense ones share its one batch engine
        (each lane carries its own ``thv``/``reg_size``).
        """
        return self.d

    def online_config(self) -> OnlineConfig:
        """The session's decoder operating point (memoised: admissions
        of one operating point share a config instance)."""
        return _online_config(
            self.frequency_hz,
            self.measurement_interval_s,
            self.thv,
            self.reg_size,
        )

    def to_payload(self) -> dict:
        """JSON-safe form (the TCP request body); never aliases the
        spec's ``noise_params``."""
        return {
            "d": self.d,
            "p": self.p,
            "seed": self.seed,
            "n_rounds": self.n_rounds,
            "mode": self.mode,
            "thv": self.thv,
            "reg_size": self.reg_size,
            "frequency_hz": self.frequency_hz,
            "measurement_interval_s": self.measurement_interval_s,
            "q": self.q,
            "noise": self.noise,
            "noise_params": (
                None if self.noise_params is None else dict(self.noise_params)
            ),
            "window": self.window,
            "commit": self.commit,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SessionSpec":
        """Inverse of :meth:`to_payload`; unknown keys are rejected."""
        known = set(cls.__dataclass_fields__)
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown session spec fields: {sorted(extra)}")
        return cls(**payload)


class SessionState(enum.Enum):
    """Lifecycle of a session inside the scheduler."""

    QUEUED = "queued"
    ACTIVE = "active"
    DONE = "done"


@dataclass
class WindowOutcome:
    """Result of one sliding-window session (batch semantics)."""

    failed: bool
    matches: list[Match] = field(default_factory=list)
    cycles: int = 0
    n_rounds: int = 0
    overflow: bool = False  # window decoding has no Reg bound
    layer_cycles: list[int] = field(default_factory=list)

    @property
    def logical_failed(self) -> bool:
        """Mirror of :attr:`OnlineOutcome.logical_failed`."""
        return self.failed


class WindowShot(StreamingShotState):
    """Streaming-shot adapter for the sliding-window baseline.

    Extends :class:`repro.core.online.StreamingShotState` so window
    sessions ride the same
    :func:`~repro.core.online.advance_streaming_round` micro-batches
    as online sessions: their event windows are drawn and derived with
    the batch's, each round's detection-event layer is accumulated,
    and the windowed decode runs once at end of stream
    (during the batched failure check).  The event stream it decodes is
    exactly the batch-setting stream of
    :class:`repro.surface_code.syndrome.SyndromeBatch` on the same
    noise draws.
    """

    __slots__ = ("decoder", "_layers", "_result")

    kind = "window"

    def __init__(
        self,
        lattice: PlanarLattice,
        noise: NoiseModel,
        n_rounds: int,
        decoder: SlidingWindowDecoder,
        rng: np.random.Generator | int | tuple[int, int] | None,
        block: StreamingBlock,
        row: int | None = None,
    ):
        super().__init__(lattice, noise, n_rounds, rng, block, row)
        self.decoder = decoder
        # Noisy rounds plus the perfect terminal round.
        self._layers = np.empty((n_rounds + 1, lattice.n_ancillas), dtype=np.uint8)
        self._result = None

    def step(self, events_row: np.ndarray, empty: bool) -> str:
        """Ingest one detection-event layer; decode happens at the end."""
        self._layers[self.k] = events_row
        self.k += 1
        return "done" if self.k == self.n_rounds + 1 else "running"

    def finish_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Run the windowed decode; (final error, correction) for the
        batched logical-failure check."""
        self._result = self.decoder.decode(self.lattice, self._layers)
        return self.error, self._result.correction

    def finalize(self, failed: bool) -> None:
        """Record the end-of-stream outcome after the failure check."""
        result = self._result
        self.outcome = WindowOutcome(
            failed=bool(failed),
            matches=list(result.matches),
            cycles=result.cycles,
            n_rounds=self.n_rounds,
        )


def _match_payload(match: Match) -> list:
    """JSON-safe form of one match."""
    return [
        match.kind,
        list(match.a),
        None if match.b is None else list(match.b),
        match.side,
    ]


@dataclass
class SessionResult:
    """What a finished session reports back to its client."""

    session_id: int
    mode: str
    d: int
    failed: bool
    overflow: bool
    n_rounds: int
    matches: list[Match]
    layer_cycles: list[int]
    cycles: int
    wait_s: float
    service_s: float

    @property
    def logical_failed(self) -> bool:
        """Failure excluding overflow (pure matching-quality failures)."""
        return self.failed and not self.overflow

    def to_payload(self) -> dict:
        """JSON-safe form (the TCP response body): the fields in
        declaration order, then ``logical_failed``."""
        return {
            "session_id": self.session_id,
            "mode": self.mode,
            "d": self.d,
            "failed": self.failed,
            "overflow": self.overflow,
            "n_rounds": self.n_rounds,
            "matches": [_match_payload(m) for m in self.matches],
            "layer_cycles": list(self.layer_cycles),
            "cycles": self.cycles,
            "wait_s": self.wait_s,
            "service_s": self.service_s,
            "logical_failed": self.logical_failed,
        }


@dataclass
class DecodeSession:
    """One accepted spec moving through the scheduler lifecycle."""

    id: int
    spec: SessionSpec
    state: SessionState = SessionState.QUEUED
    submitted_at: float = 0.0
    admitted_at: float = 0.0
    finished_at: float = 0.0
    shot: OnlineShot | WindowShot | None = None
    result: SessionResult | None = None

    def finish(self, now: float) -> SessionResult:
        """Build the result from the retired shot's outcome."""
        outcome: OnlineOutcome | WindowOutcome = self.shot.outcome
        self.state = SessionState.DONE
        self.finished_at = now
        self.result = SessionResult(
            session_id=self.id,
            mode=self.spec.mode,
            d=self.spec.d,
            failed=outcome.failed,
            overflow=outcome.overflow,
            n_rounds=outcome.n_rounds,
            matches=list(outcome.matches),
            layer_cycles=list(outcome.layer_cycles),
            cycles=(
                outcome.cycles
                if isinstance(outcome, WindowOutcome)
                else sum(outcome.layer_cycles)
            ),
            wait_s=self.admitted_at - self.submitted_at,
            service_s=now - self.admitted_at,
        )
        return self.result
