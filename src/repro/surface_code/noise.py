"""Noise models for the quantum error simulator.

The paper evaluates with the *phenomenological* noise model of Dennis et
al. [4]: every round, each data qubit suffers an independent Pauli-X flip
with probability ``p`` and each ancilla measurement reads out wrong with
probability ``q``; the paper sets ``q = p`` ("We assume the error
probabilities of data and ancilla qubits are equal").

The *code-capacity* model (single round, perfect measurement) is used for
the 2-D threshold comparisons in Table IV.

Beyond the paper's two models, this module provides a string-keyed
**registry** of noise families so any experiment can be re-run under any
scenario (see :func:`get_noise` and the runner's ``--noise`` flag):

- ``code_capacity`` / ``phenomenological`` — the paper's models,
- ``biased_x`` / ``biased_z`` — flips biased toward one Pauli axis; the
  simulated sector sees only the X component, so bias rescales the
  visible data-flip rate,
- ``depolarizing`` — single-qubit depolarizing projected onto the
  X-detecting sector (X and Y both flip a data qubit here: rate 2p/3),
- ``drift`` — round-dependent rates ramping linearly from ``p`` in the
  first round to ``ramp * p`` in the last (calibration drift / heating).

A family defines nothing but its per-round flip rates,
:meth:`NoiseModel.rates` over a window ``[start, stop)`` of rounds: the
constant-rate families give one ``(data, measurement)`` pair, ``drift``
evaluates its ramp on the window alone.  Every model exposes both the
historical per-shot API (``sample``, ``sample_round``,
``sample_rounds``) and **batched** kernels over a leading shots axis
(``sample_batch``, ``sample_data_batch``).  The batched kernels accept
either a single generator — noise for the whole batch in one vectorized
draw — or a sequence of per-shot generators, which reproduces the
per-shot :class:`numpy.random.SeedSequence` substream layout of the
sharded executor *bit for bit* while still vectorizing all thresholding
and downstream work (see ``tests/README.md``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from repro.surface_code.lattice import PlanarLattice
from repro.util.rng import make_rng

__all__ = [
    "BiasedNoise",
    "CodeCapacityNoise",
    "DepolarizingNoise",
    "DriftNoise",
    "NoiseModel",
    "PhenomenologicalNoise",
    "available_noise_models",
    "get_noise",
    "register_noise",
    "sample_code_capacity",
    "sample_phenomenological",
]


RngsLike = "np.random.Generator | int | None | Sequence[np.random.Generator]"


class NoiseModel:
    """Base class for all registered noise families.

    A concrete model is a frozen dataclass whose only job is to give
    the per-round Bernoulli rates of :meth:`rates`: a constant-rate
    family supplies its ``(data, measurement)`` pair through
    :meth:`rate_pair`, a round-dependent one overrides :meth:`rates`
    itself.  Every sampling method — per-shot and batched — is
    implemented once here in terms of those rates, and each asks only
    for the rounds it draws, so a single round costs O(1) in the
    stream length.

    Sampling draws uniforms *first* and thresholds them *second*, so two
    models that draw the same number of variates consume identical
    stream positions: decoders compared under the same seed see paired
    noise whatever the model (the ``ordering_ablation`` contract).
    """

    #: Registry key of the family (overridden per subclass; models whose
    #: key depends on parameters override the ``name`` property instead).
    registry_name: ClassVar[str] = ""

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name: ``get_noise(model.name, **model.params())``
        reconstructs an equal model."""
        return self.registry_name

    def params(self) -> dict:
        """Constructor parameters as accepted by this model's registry
        factory (used for cache keys and registry round-trips)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def key(self) -> str:
        """Canonical string identity (stable cache-key component)."""
        inner = ",".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{self.name}({inner})"

    # ------------------------------------------------------------------
    # Subclass interface: per-round Bernoulli rates
    # ------------------------------------------------------------------
    def rate_pair(self) -> tuple[float, float]:
        """The ``(data, measurement)`` flip probabilities of every round
        (constant-rate families; round-dependent ones override
        :meth:`rates` instead)."""
        raise NotImplementedError

    def rates(
        self, n_rounds: int, start: int = 0, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data-qubit and measurement flip probabilities of rounds
        ``[start, stop)`` of an ``n_rounds``-round experiment, two
        float64 arrays of length ``stop - start`` (``stop`` defaults to
        ``n_rounds``)."""
        stop = _window_stop(n_rounds, start, stop)
        rates = np.empty((2, stop - start))
        rates[0], rates[1] = self.rate_pair()
        return rates[0], rates[1]

    # ------------------------------------------------------------------
    # Per-shot sampling (the historical API; stream layout is frozen —
    # see the golden pins in tests/test_montecarlo_determinism.py)
    # ------------------------------------------------------------------
    def sample(
        self, lattice: PlanarLattice, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """One single-round data-error pattern (code-capacity setting)."""
        rng = make_rng(rng)
        p0 = float(self.rates(1)[0][0])
        return (rng.random(lattice.n_data) < p0).astype(np.uint8)

    def sample_round(
        self,
        lattice: PlanarLattice,
        rng: np.random.Generator | int | None = None,
        t: int = 0,
        n_rounds: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """New data errors and measurement flips for round ``t``.

        ``n_rounds`` sizes round-dependent rates (defaults to
        ``t + 1``, i.e. "the experiment is at least this long"); models
        with constant rates ignore it.  ``t`` outside ``[0, n_rounds)``
        raises :class:`ValueError`.  Returns ``(data_flips,
        measurement_flips)`` as uint8 vectors of lengths ``n_data`` and
        ``n_ancillas``.
        """
        n = (t + 1) if n_rounds is None else n_rounds
        ps, qs = self.rates(n, t, t + 1)
        p_t, q_t = float(ps[0]), float(qs[0])
        rng = make_rng(rng)
        data = (rng.random(lattice.n_data) < p_t).astype(np.uint8)
        meas = (rng.random(lattice.n_ancillas) < q_t).astype(np.uint8)
        return data, meas

    def sample_rounds(
        self,
        lattice: PlanarLattice,
        n_rounds: int,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ``n_rounds`` of one shot's noise at once.

        Returns ``(data_flips, measurement_flips)`` with shapes
        ``(n_rounds, n_data)`` and ``(n_rounds, n_ancillas)``.  Row ``t``
        holds the *new* errors appearing in round ``t`` (cumulative
        state is the running XOR) and the flips applied to round ``t``'s
        readout.
        """
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
        rng = make_rng(rng)
        ps, qs = self.rates(n_rounds)
        data = (rng.random((n_rounds, lattice.n_data)) < ps[:, None]).astype(np.uint8)
        meas = (rng.random((n_rounds, lattice.n_ancillas)) < qs[:, None]).astype(np.uint8)
        return data, meas

    # ------------------------------------------------------------------
    # Batched sampling (the hot path of the Monte-Carlo tasks)
    # ------------------------------------------------------------------
    def sample_data_batch(
        self,
        lattice: PlanarLattice,
        shots: int | None = None,
        rng: RngsLike = None,
    ) -> np.ndarray:
        """``shots`` single-round data-error patterns, ``(shots, n_data)``.

        ``rng`` may be a single seed/generator (whole batch drawn in one
        vectorized call) or a sequence of per-shot generators, in which
        case each shot draws exactly what :meth:`sample` would — the
        executor's substream contract — and ``shots`` defaults to the
        sequence length.
        """
        uniforms = _batched_uniforms(shots, [(lattice.n_data,)], rng)[0]
        p0 = float(self.rates(1)[0][0])
        # A fresh bool comparison result views as uint8 for free.
        return (uniforms < p0).view(np.uint8)

    def sample_batch(
        self,
        lattice: PlanarLattice,
        n_rounds: int,
        shots: int | None = None,
        rng: RngsLike = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A whole batch of multi-round noise over a leading shots axis.

        Returns ``(data_flips, measurement_flips)`` with shapes
        ``(shots, n_rounds, n_data)`` and ``(shots, n_rounds,
        n_ancillas)``.  ``rng`` follows the :meth:`sample_data_batch`
        convention; with a sequence of per-shot generators each shot's
        draws are bit-identical to :meth:`sample_rounds` on the same
        generator.
        """
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
        u_data, u_meas = _batched_uniforms(
            shots,
            [(n_rounds, lattice.n_data), (n_rounds, lattice.n_ancillas)],
            rng,
        )
        ps, qs = self.rates(n_rounds)
        return (
            (u_data < ps[None, :, None]).view(np.uint8),
            (u_meas < qs[None, :, None]).view(np.uint8),
        )


def _window_stop(n_rounds: int, start: int, stop: int | None) -> int:
    """Validate the round window ``[start, stop)`` of an ``n_rounds``
    experiment; returns ``stop`` (``n_rounds`` when ``None``)."""
    stop = n_rounds if stop is None else stop
    if not 0 <= start <= stop <= n_rounds:
        raise ValueError(
            f"rounds [{start}, {stop}) out of range for n_rounds={n_rounds}"
        )
    return stop


def _batched_uniforms(
    shots: int | None,
    shapes: list[tuple[int, ...]],
    rng: RngsLike,
) -> list[np.ndarray]:
    """Uniform variates for a batch, one array per requested block shape.

    Single-generator mode draws each block for the whole batch in one
    call; sequence mode draws each shot's blocks in order from that
    shot's own generator (the executor's per-shot substream layout).
    """
    if isinstance(rng, (Sequence, Iterator)) and not isinstance(rng, (str, bytes)):
        rngs = list(rng)
        if shots is not None and shots != len(rngs):
            raise ValueError(f"shots={shots} but {len(rngs)} generators given")
        outs = [np.empty((len(rngs),) + shape) for shape in shapes]
        for i, gen in enumerate(rngs):
            for out in outs:
                gen.random(out=out[i])
        return outs
    if shots is None:
        raise ValueError("shots is required when rng is not a sequence of generators")
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    gen = make_rng(rng)
    return [gen.random((shots,) + shape) for shape in shapes]


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeCapacityNoise(NoiseModel):
    """Single-round data-error-only noise (perfect syndrome measurement)."""

    registry_name: ClassVar[str] = "code_capacity"

    p: float

    def __post_init__(self) -> None:
        _check_probability("p", self.p)

    def rate_pair(self) -> tuple[float, float]:
        return self.p, 0.0


@dataclass(frozen=True)
class PhenomenologicalNoise(NoiseModel):
    """Per-round iid data flips (``p``) and measurement flips (``q``).

    ``q`` defaults to ``p`` as in the paper.
    """

    registry_name: ClassVar[str] = "phenomenological"

    p: float
    q: float | None = None

    def __post_init__(self) -> None:
        _check_probability("p", self.p)
        if self.q is not None:
            _check_probability("q", self.q)

    @property
    def measurement_error_rate(self) -> float:
        """Effective measurement-flip probability (``q`` or ``p``)."""
        return self.p if self.q is None else self.q

    def rate_pair(self) -> tuple[float, float]:
        return self.p, self.measurement_error_rate


@dataclass(frozen=True)
class BiasedNoise(NoiseModel):
    """Pauli flips biased toward one axis, projected onto this sector.

    ``p`` is the *total* per-round flip probability, split between X and
    Z components with ratio ``bias`` toward ``axis``.  The simulated
    sector detects X errors only, so the visible data-flip rate is the
    X share: ``p * bias / (1 + bias)`` under X bias and
    ``p / (1 + bias)`` under Z bias (large ``bias`` with ``axis="z"``
    models the noise-biased qubits where dephasing dominates).
    ``q`` defaults to the visible rate, preserving the paper's
    "measurement as noisy as data" convention under projection.
    """

    p: float
    q: float | None = None
    bias: float = 10.0
    axis: str = "z"

    def __post_init__(self) -> None:
        _check_probability("p", self.p)
        if self.q is not None:
            _check_probability("q", self.q)
        if self.bias < 0:
            raise ValueError(f"bias must be non-negative, got {self.bias}")
        if self.axis not in ("x", "z"):
            raise ValueError(f"axis must be 'x' or 'z', got {self.axis!r}")

    @property
    def name(self) -> str:
        return f"biased_{self.axis}"

    def params(self) -> dict:
        # ``axis`` is encoded in the registry name, not a factory kwarg.
        return {"p": self.p, "q": self.q, "bias": self.bias}

    @property
    def visible_rate(self) -> float:
        """X-component flip rate seen by the simulated sector."""
        share = self.bias / (1.0 + self.bias) if self.axis == "x" else 1.0 / (1.0 + self.bias)
        return self.p * share

    def rate_pair(self) -> tuple[float, float]:
        return self.visible_rate, self.visible_rate if self.q is None else self.q


@dataclass(frozen=True)
class DepolarizingNoise(NoiseModel):
    """Single-qubit depolarizing channel projected onto this sector.

    With total depolarizing strength ``p`` a qubit suffers X, Y or Z
    each with probability ``p/3``; X and Y both flip the qubit in the
    X-detecting sector, so the visible data-flip rate is ``2p/3``.
    ``q`` defaults to the visible rate.
    """

    registry_name: ClassVar[str] = "depolarizing"

    p: float
    q: float | None = None

    def __post_init__(self) -> None:
        _check_probability("p", self.p)
        if self.q is not None:
            _check_probability("q", self.q)

    @property
    def visible_rate(self) -> float:
        """X-or-Y flip rate seen by the simulated sector."""
        return 2.0 * self.p / 3.0

    def rate_pair(self) -> tuple[float, float]:
        return self.visible_rate, self.visible_rate if self.q is None else self.q


@dataclass(frozen=True)
class DriftNoise(NoiseModel):
    """Round-dependent rates ramping linearly across the experiment.

    Round ``t`` of ``n`` uses ``p_t = p * (1 + (ramp - 1) * t / (n - 1))``
    — i.e. rates start at ``p`` and end at ``ramp * p`` (a one-round
    experiment just uses ``p``).  The measurement rate ramps with the
    same profile from ``q`` (default ``p``).  ``ramp < 1`` models
    improving calibration; ``ramp > 1`` heating / drift.
    """

    registry_name: ClassVar[str] = "drift"

    p: float
    q: float | None = None
    ramp: float = 2.0

    def __post_init__(self) -> None:
        _check_probability("p", self.p)
        if self.q is not None:
            _check_probability("q", self.q)
        if self.ramp < 0:
            raise ValueError(f"ramp must be non-negative, got {self.ramp}")
        peak = max(1.0, self.ramp)
        _check_probability("p * ramp", self.p * peak)
        _check_probability("q * ramp", (self.p if self.q is None else self.q) * peak)

    def rates(
        self, n_rounds: int, start: int = 0, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        # The ramp is evaluated on the window's round indices only: the
        # same elementwise arithmetic as over all rounds, so any window
        # is bit-identical to that slice of the full ramp.
        stop = _window_stop(n_rounds, start, stop)
        if n_rounds <= 1:
            profile = np.ones(stop - start)
        else:
            t = np.arange(start, stop) / (n_rounds - 1)
            profile = 1.0 + (self.ramp - 1.0) * t
        q0 = self.p if self.q is None else self.q
        return self.p * profile, q0 * profile


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_NOISE_REGISTRY: dict[str, Callable[..., NoiseModel]] = {}


def register_noise(name: str, factory: Callable[..., NoiseModel]) -> None:
    """Register a noise family under ``name``.

    ``factory`` is called as ``factory(p=..., **params)`` and must
    return a :class:`NoiseModel` whose ``name`` round-trips to ``name``.
    """
    if name in _NOISE_REGISTRY:
        raise ValueError(f"noise model {name!r} already registered")
    _NOISE_REGISTRY[name] = factory


def available_noise_models() -> tuple[str, ...]:
    """Sorted names of every registered noise family."""
    return tuple(sorted(_NOISE_REGISTRY))


def get_noise(name: str, p: float, **params) -> NoiseModel:
    """Instantiate the registered family ``name`` at base rate ``p``.

    Extra keyword parameters are forwarded to the family's factory
    (``q=``, ``bias=``, ``ramp=``, ...); unsupported ones raise
    :class:`ValueError` naming the model.
    """
    try:
        factory = _NOISE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown noise model {name!r}; available: {', '.join(available_noise_models())}"
        ) from None
    try:
        return factory(p=p, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for noise model {name!r}: {exc}") from None


def _code_capacity_factory(p: float, q: float | None = None) -> CodeCapacityNoise:
    if q not in (None, 0, 0.0):
        raise TypeError("code_capacity has perfect measurement; q is not configurable")
    return CodeCapacityNoise(p)


register_noise("code_capacity", _code_capacity_factory)
register_noise("phenomenological", PhenomenologicalNoise)
register_noise(
    "biased_x",
    lambda p, q=None, bias=10.0: BiasedNoise(p, q, bias=bias, axis="x"),
)
register_noise(
    "biased_z",
    lambda p, q=None, bias=10.0: BiasedNoise(p, q, bias=bias, axis="z"),
)
register_noise("depolarizing", DepolarizingNoise)
register_noise("drift", DriftNoise)


# ---------------------------------------------------------------------------
# Convenience wrappers (historical API)
# ---------------------------------------------------------------------------


def sample_code_capacity(
    lattice: PlanarLattice, p: float, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Convenience wrapper: one code-capacity error sample."""
    return CodeCapacityNoise(p).sample(lattice, rng)


def sample_phenomenological(
    lattice: PlanarLattice,
    p: float,
    n_rounds: int,
    rng: np.random.Generator | int | None = None,
    q: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n_rounds`` of phenomenological noise at once.

    Returns ``(data_flips, measurement_flips)`` with shapes
    ``(n_rounds, n_data)`` and ``(n_rounds, n_ancillas)``.  Row ``t`` holds
    the *new* errors appearing in round ``t`` (cumulative state is the
    running XOR) and the measurement flips applied to round ``t``'s
    readout.
    """
    return PhenomenologicalNoise(p, q).sample_rounds(lattice, n_rounds, rng)


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
