"""Bit-identity of the sampled sessions, re-derived after the timed window.

Every sampled wire result must equal a standalone
:func:`repro.core.online.run_online_trial` on the same spec and seed:
matches, per-layer cycles, the failed and overflow flags and the
rounds decoded.
"""

from __future__ import annotations

from repro.core.online import run_online_trial
from repro.service.session import SessionSpec
from repro.surface_code.lattice import PlanarLattice


def mismatches(sampled: dict) -> list:
    """``(index, field)`` for every sampled result that differs."""
    lattices: dict[int, PlanarLattice] = {}
    bad = []
    for index, (payload, result) in sorted(sampled.items()):
        spec = SessionSpec.from_payload(payload)
        lattice = lattices.get(spec.d)
        if lattice is None:
            lattice = lattices[spec.d] = PlanarLattice(spec.d)
        reference = run_online_trial(
            lattice, spec.p, spec.rounds, spec.online_config(), rng=spec.seed
        )
        expected = {
            "failed": reference.failed,
            "overflow": reference.overflow,
            "n_rounds": reference.n_rounds,
            "layer_cycles": list(reference.layer_cycles),
            "matches": [
                [m.kind, list(m.a), None if m.b is None else list(m.b), m.side]
                for m in reference.matches
            ],
        }
        for name, value in expected.items():
            if result.get(name) != value:
                bad.append((index, name))
                break
    return bad
