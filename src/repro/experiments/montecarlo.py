"""Monte-Carlo shot runners shared by every experiment.

Three kinds of points:

- **code-capacity** (2-D): single perfectly-measured round; drives the
  2-D threshold column of Table IV,
- **batch** (3-D): ``d`` noisy rounds plus a perfect terminal round,
  decoded at once; drives Fig. 4 and the 3-D thresholds,
- **online**: streaming rounds against a finite decoder clock; drives
  Fig. 7 and Table III.

Shot execution is delegated to
:class:`repro.experiments.executor.ParallelExecutor`: every shot draws
its generator from a :class:`numpy.random.SeedSequence` substream keyed
by the shot index, so for a fixed seed the reported counts are
bit-identical whether a point runs serially, across any number of
worker processes, or with any chunk size.  Each runner additionally
accepts

- ``jobs`` — worker processes (1 = in-process serial execution),
- ``chunk_size`` — shots per scheduling chunk (defaults to ~1/32 of
  the budget),
- ``adaptive`` — an :class:`~repro.experiments.executor.AdaptiveConfig`
  that stops the point once its Wilson interval is tight enough or a
  failure quota is met; the returned point's ``shots`` is what was
  actually spent,
- ``cache`` — a :class:`~repro.experiments.executor.PointCache` (or a
  directory path) memoising finished points on disk.  Only
  integer-seeded points are cached: a generator's identity is not a
  stable key.

Each runner also accepts ``noise`` (a registry name from
:func:`repro.surface_code.noise.get_noise`, or a ready model instance)
and ``noise_params`` so any point can be re-run under any registered
noise scenario; the model's canonical ``key`` participates in the point
cache key, so differently-noised points never collide.  Inside a chunk
the code-capacity and batch tasks sample the *whole chunk's* noise with
the batched kernels and reduce syndrome extraction / failure accounting
to vectorized numpy passes — the per-shot loop contains only the
decoder call.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.online import OnlineConfig, run_online_chunk
from repro.decoders.base import Decoder
from repro.experiments.executor import (
    AdaptiveConfig,
    ChunkStats,
    ParallelExecutor,
    PointCache,
    ShotChunk,
)
from repro.surface_code.lattice import PlanarLattice
from repro.surface_code.logical import logical_failures_batch
from repro.surface_code.noise import (
    CodeCapacityNoise,
    NoiseModel,
    PhenomenologicalNoise,
    get_noise,
)
from repro.surface_code.syndrome import SyndromeBatch
from repro.util.stats import RateEstimate

__all__ = [
    "BatchPoint",
    "BatchTask",
    "CodeCapacityTask",
    "OnlinePoint",
    "OnlineTask",
    "resolve_noise",
    "run_batch_point",
    "run_code_capacity_point",
    "run_online_point",
]


def resolve_noise(
    noise: str | NoiseModel | None,
    default_name: str,
    p: float,
    q: float | None = None,
    noise_params: dict | None = None,
) -> NoiseModel:
    """Normalise a point runner's noise arguments into a model instance.

    ``noise`` may be a registry name, a ready-made model (used verbatim;
    combining it with ``noise_params`` is an error), or ``None`` for the
    runner's default family at the point's ``(p, q)``.  An explicit
    ``q`` argument wins over a ``"q"`` riding along in ``noise_params``
    — the direct argument is the more specific request (this is what
    lets the q/p ablation sweep its per-point q under a global ``--q``).
    """
    if isinstance(noise, NoiseModel):
        if noise_params:
            raise ValueError("noise_params only apply when noise is a registry name")
        return noise
    params = dict(noise_params or {})
    if q is not None:
        params["q"] = q
    return get_noise(noise or default_name, p=p, **params)


@dataclass
class BatchPoint:
    """One (decoder, d, p) Monte-Carlo estimate for batch decoding."""

    decoder: str
    d: int
    p: float
    shots: int
    failures: int
    n_matches: int = 0
    n_deep_vertical: int = 0  # pair matches spanning >= `deep` planes
    deep_threshold: int = 3

    @property
    def logical_rate(self) -> RateEstimate:
        """Logical error rate with its Wilson interval."""
        return RateEstimate(self.failures, self.shots)

    @property
    def deep_vertical_fraction(self) -> float:
        """Fig. 4(b): fraction of matches spanning >= 3 vertical planes."""
        return self.n_deep_vertical / self.n_matches if self.n_matches else 0.0


@dataclass
class OnlinePoint:
    """One (d, p, frequency) Monte-Carlo estimate for online decoding."""

    d: int
    p: float
    frequency_hz: float | None
    shots: int
    failures: int
    overflows: int
    layer_cycles: list[int] = field(default_factory=list)

    @property
    def logical_rate(self) -> RateEstimate:
        """Total failure rate (matching failures plus overflows)."""
        return RateEstimate(self.failures, self.shots)

    @property
    def overflow_rate(self) -> RateEstimate:
        """Reg-overflow failure rate alone."""
        return RateEstimate(self.overflows, self.shots)


# ---------------------------------------------------------------------------
# Shot tasks: picklable per-chunk loops handed to the executor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeCapacityTask:
    """2-D setting: one perfect syndrome per shot.

    The whole chunk's noise is sampled in one batched kernel call (per
    shot substreams preserved — see ``tests/README.md``), syndromes come
    from one batched parity matmul, and the per-shot loop is reduced to
    the decoder call alone.
    """

    decoder: Decoder
    d: int
    p: float
    noise: NoiseModel | None = None

    def model(self) -> NoiseModel:
        """The noise model in effect (default: code capacity at ``p``)."""
        return CodeCapacityNoise(self.p) if self.noise is None else self.noise

    def run_chunk(self, chunk: ShotChunk) -> ChunkStats:
        lattice = PlanarLattice(self.d)
        errors = self.model().sample_data_batch(lattice, rng=chunk.rngs())
        syndromes = lattice.syndrome_of_batch(errors)
        corrections = np.empty_like(errors)
        # One single-layer stack per shot; decoders with a shot-major
        # fast path (QECOOL's batch engine) drain the chunk lock-step.
        results = self.decoder.decode_batch(lattice, syndromes[:, None, :])
        for i, result in enumerate(results):
            corrections[i] = result.correction
        failures = int(logical_failures_batch(lattice, errors, corrections).sum())
        return ChunkStats(shots=chunk.shots, failures=failures)


@dataclass(frozen=True)
class BatchTask:
    """3-D batch setting: noisy rounds plus a perfect terminal round.

    Noise sampling, cumulative-error accumulation, syndrome extraction
    and detection events all run batched over the chunk's shots axis
    (:class:`~repro.surface_code.syndrome.SyndromeBatch`); only the
    decoder itself runs per shot.
    """

    decoder: Decoder
    d: int
    p: float
    rounds: int
    deep_threshold: int = 3
    noise: NoiseModel | None = None

    def model(self) -> NoiseModel:
        """The noise model in effect (default: phenomenological at ``p``)."""
        return PhenomenologicalNoise(self.p) if self.noise is None else self.noise

    def run_chunk(self, chunk: ShotChunk) -> ChunkStats:
        lattice = PlanarLattice(self.d)
        data, meas = self.model().sample_batch(lattice, self.rounds, rng=chunk.rngs())
        batch = SyndromeBatch.run(lattice, data, meas)
        n_matches = n_deep = 0
        corrections = np.empty((chunk.shots, lattice.n_data), dtype=np.uint8)
        # The whole chunk drains through the decoder's batch entry (the
        # QECOOL batch engine advances every shot lock-step; baseline
        # decoders fall back to the per-shot loop) — bit-identical to
        # decoding stack by stack.
        results = self.decoder.decode_batch(lattice, batch.events)
        for i, result in enumerate(results):
            corrections[i] = result.correction
            n_matches += len(result.matches)
            n_deep += sum(
                1 for m in result.matches if m.vertical_extent >= self.deep_threshold
            )
        failures = int(
            logical_failures_batch(lattice, batch.final_errors, corrections).sum()
        )
        return ChunkStats(
            shots=chunk.shots, failures=failures,
            n_matches=n_matches, n_deep_vertical=n_deep,
        )


@dataclass(frozen=True)
class OnlineTask:
    """Online setting: streaming QECOOL under a finite decoder clock.

    Each shot's trial is inherently sequential (corrections feed back
    between rounds), but the chunk's shots advance in lock-step through
    :func:`~repro.core.online.run_online_chunk`: one engine and noise
    substream per shot, with per-round sampling, syndrome extraction
    and compensation batched across the still-active shots — results
    bit-identical to the former per-shot ``run_online_trial`` loop.
    """

    d: int
    p: float
    rounds: int
    config: OnlineConfig
    keep_layer_cycles: bool = False
    q: float | None = None
    noise: NoiseModel | None = None

    def run_chunk(self, chunk: ShotChunk) -> ChunkStats:
        lattice = PlanarLattice(self.d)
        if self.noise is None:
            outcomes = run_online_chunk(
                lattice, self.p, self.rounds, self.config, chunk.rngs(), q=self.q
            )
        else:
            outcomes = run_online_chunk(
                lattice, self.noise, self.rounds, self.config, chunk.rngs()
            )
        cycles: list[int] = []
        if self.keep_layer_cycles:
            for outcome in outcomes:
                cycles.extend(outcome.layer_cycles)
        return ChunkStats(
            shots=chunk.shots,
            failures=sum(o.failed for o in outcomes),
            overflows=sum(o.overflow for o in outcomes),
            layer_cycles=tuple(cycles),
        )


# ---------------------------------------------------------------------------
# Point runners.
# ---------------------------------------------------------------------------


def _decoder_key(decoder: Decoder) -> str:
    """Stable cache identity of a decoder instance.

    Only constructor parameters participate (matched to same-named
    attributes) — never the full ``vars()``, which may hold runtime
    counters like ``MwpmDecoder.fallback_uses`` whose values depend on
    call history and would make cache keys irreproducible.  A
    constructor parameter with no same-named attribute raises: silently
    dropping it would give differently-configured decoders identical
    cache keys, corrupting every cached table.
    """
    params = []
    for name, param in inspect.signature(type(decoder).__init__).parameters.items():
        if name == "self" or param.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            continue
        if not hasattr(decoder, name):
            raise ValueError(
                f"{type(decoder).__name__} stores constructor parameter "
                f"{name!r} under a different attribute name; cannot build a "
                "faithful cache key for it"
            )
        params.append((name, getattr(decoder, name)))
    return f"{decoder.name}:{sorted(params)!r}"


def _run_point(
    task,
    shots: int,
    rng,
    jobs: int,
    chunk_size: int | None,
    adaptive: AdaptiveConfig | None,
    cache: PointCache | str | os.PathLike | None,
    make_cache_key,
) -> ChunkStats:
    """Shared cache-then-execute path of the three point runners.

    ``make_cache_key`` is a zero-argument callable so key construction
    (which may reject uncacheable decoders) only happens when a cache
    is actually in play.
    """
    if isinstance(cache, (str, os.PathLike)):
        cache = PointCache(cache)
    # Only integer seeds name a reproducible point; generator-seeded
    # runs bypass the cache entirely.
    cacheable = cache is not None and isinstance(rng, int)
    if cacheable:
        cache_key = dict(
            make_cache_key(), seed=rng, shots=shots,
            adaptive=None if adaptive is None else sorted(vars(adaptive).items()),
            chunk_size=chunk_size,
        )
        cache_key["adaptive"] = repr(cache_key["adaptive"])
        hit = cache.get(cache_key)
        if hit is not None:
            return hit
    executor = ParallelExecutor(jobs=jobs, chunk_size=chunk_size, adaptive=adaptive)
    stats = executor.run(task, shots, rng)
    if cacheable:
        cache.put(cache_key, stats)
    return stats


def run_code_capacity_point(
    decoder: Decoder,
    d: int,
    p: float,
    shots: int,
    rng: np.random.Generator | int | None = None,
    *,
    noise: str | NoiseModel | None = None,
    noise_params: dict | None = None,
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptiveConfig | None = None,
    cache: PointCache | str | os.PathLike | None = None,
) -> BatchPoint:
    """2-D setting: one perfect syndrome per shot.

    ``noise`` selects a registered noise family (default
    ``"code_capacity"``); only its data-flip rate matters here —
    measurement is perfect by construction.  For that reason a ``"q"``
    riding along in ``noise_params`` (e.g. the runner's global ``--q``
    applied across experiments) is ignored by the *default* model
    rather than rejected; explicitly requesting ``noise=
    "code_capacity"`` together with a ``q`` still errors.
    """
    if noise is None and noise_params and "q" in noise_params:
        noise_params = {k: v for k, v in noise_params.items() if k != "q"}
    model = resolve_noise(noise, "code_capacity", p, noise_params=noise_params)
    stats = _run_point(
        CodeCapacityTask(decoder, d, p, noise=model), shots, rng,
        jobs, chunk_size, adaptive, cache,
        make_cache_key=lambda: {
            "experiment": "code_capacity", "decoder": _decoder_key(decoder),
            "d": d, "p": p, "rounds": 1, "noise": model.key,
        },
    )
    return BatchPoint(decoder.name, d, p, stats.shots, stats.failures)


def run_batch_point(
    decoder: Decoder,
    d: int,
    p: float,
    shots: int,
    rng: np.random.Generator | int | None = None,
    n_rounds: int | None = None,
    deep_threshold: int = 3,
    *,
    noise: str | NoiseModel | None = None,
    noise_params: dict | None = None,
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptiveConfig | None = None,
    cache: PointCache | str | os.PathLike | None = None,
) -> BatchPoint:
    """3-D batch setting: ``n_rounds`` (default ``d``) noisy rounds plus a
    perfect terminal round, decoded in one call.

    ``noise`` selects a registered noise family (default
    ``"phenomenological"``); ``noise_params`` are forwarded to its
    factory (e.g. ``{"bias": 10}`` for ``"biased_z"``).
    """
    rounds = d if n_rounds is None else n_rounds
    model = resolve_noise(noise, "phenomenological", p, noise_params=noise_params)
    stats = _run_point(
        BatchTask(decoder, d, p, rounds, deep_threshold, noise=model), shots, rng,
        jobs, chunk_size, adaptive, cache,
        make_cache_key=lambda: {
            "experiment": "batch", "decoder": _decoder_key(decoder),
            "d": d, "p": p, "rounds": rounds, "deep_threshold": deep_threshold,
            "noise": model.key,
        },
    )
    return BatchPoint(
        decoder.name, d, p, stats.shots, stats.failures,
        n_matches=stats.n_matches, n_deep_vertical=stats.n_deep_vertical,
        deep_threshold=deep_threshold,
    )


def run_online_point(
    d: int,
    p: float,
    shots: int,
    config: OnlineConfig | None = None,
    rng: np.random.Generator | int | None = None,
    n_rounds: int | None = None,
    keep_layer_cycles: bool = False,
    *,
    q: float | None = None,
    noise: str | NoiseModel | None = None,
    noise_params: dict | None = None,
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptiveConfig | None = None,
    cache: PointCache | str | os.PathLike | None = None,
) -> OnlinePoint:
    """Online setting: streaming QECOOL under ``config``'s clock.

    ``config=None`` means a fresh default :class:`OnlineConfig` (never a
    shared instance); ``q`` overrides the measurement-error rate
    (defaults to ``p`` inside the noise model).  ``noise`` selects a
    registered noise family (default ``"phenomenological"``), sampled
    round by round so round-dependent models (``"drift"``) see the
    trial's round index.
    """
    config = OnlineConfig() if config is None else config
    rounds = d if n_rounds is None else n_rounds
    model = resolve_noise(noise, "phenomenological", p, q=q, noise_params=noise_params)
    task = OnlineTask(d, p, rounds, config, keep_layer_cycles, q, noise=model)
    stats = _run_point(
        task, shots, rng,
        jobs, chunk_size, adaptive, cache,
        make_cache_key=lambda: {
            "experiment": "online", "decoder": "qecool-online",
            "d": d, "p": p, "rounds": rounds, "q": q,
            "config": repr(sorted(vars(config).items())),
            "keep_layer_cycles": keep_layer_cycles, "noise": model.key,
        },
    )
    return OnlinePoint(
        d=d, p=p, frequency_hz=config.frequency_hz, shots=stats.shots,
        failures=stats.failures, overflows=stats.overflows,
        layer_cycles=list(stats.layer_cycles),
    )
