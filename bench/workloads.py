"""Seeded op lists for the benchmark workloads.

An op is one call of a public entry point, ``run_experiment`` or
``run_wstate``, described by a preset name (or register size and mode) and
``--set``-style override strings.  Nothing else reaches the program.

Ops come in blocks.  A block holds one op per size stratum of its workload,
with equal weight, in a fixed order; the seed draws continuous parameters.
Every block of a workload therefore carries the same mix of problem sizes, so
runs with different seeds time the same amount of work, and the draw keeps any
two ops from sharing a Hamiltonian.  ``make_block`` is a pure function of
(workload, seed, block index).
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("presets", "wstate_register", "chebyshev")

EIGEN = "eigen"
FIXED_STEP = "fixed_step"
METHOD_KEY = "propagator.method"

# The dispersive ops (fig2b, fig3, digital W) double the preset detuning from
# the 6.20 eV phase-matched transition and scale the preset vacuum field
# 3.1-3.2x.  That keeps |g/Delta| at 0.085-0.096, below the 0.1
# dispersive-validity bound, and shortens the gates about 5x, so their
# fixed-step runs fit the run budget.
_PHASE_MATCH_EV = 6.20
_DISPERSIVE_E_Z = 7.58e6
_E_Z_SCALE = (3.1, 3.2)
_FIG2B_EV = 6.24
_FIG3_EV = 6.2434   # CALIBRATED_DISPERSIVE_PHOTON_EV, also digital W's


def _doubled_detuning(photon_ev: float) -> float:
    return photon_ev + (photon_ev - _PHASE_MATCH_EV)


# Coherent amplitudes of the resonant presets, Hilbert dimension 498 to 1188.
# Each block holds one resonant op per amplitude and one op of each other
# preset.  fig2a and fig2a_strong take turns, and so do fig3's two angle
# conventions, so every combination recurs once in two blocks.
ALPHAS = (6.0, 8.0, 10.0, 11.0)
_RESONANT = ("fig2a", "fig2a_strong")
_CONVENTIONS = ("arccos", "arcsin")

# Ops in a run, at the least: 3 blocks of presets or chebyshev, 6 of
# wstate_register.  The tail is the 11th slowest op; with 24 ops it is p58,
# the 14th sorted op, above the 12th and 13th that make the median.  With 20
# or fewer it would sit at or below the median.
MIN_OPS = 24

# (mode, register size): analog at N = 6, 7, 8 (dimension 256 to 1024) and
# digital at N = 3.  Digital W at N >= 4 raises DomainError in the program
# today and is left out, because a workload must be one on which no op fails.
_WSTATE_STRATA = (("analog", 6), ("digital", 3), ("analog", 7), ("analog", 8))


def _preset_strata(block: int) -> list[tuple[str, dict]]:
    others = (("fig2b", {}),
              ("fig3", {"wstate.convention": _CONVENTIONS[block % 2]}),
              ("s1_bragg", {}), ("s2_ramannath", {}))
    strata = []
    for k, alpha in enumerate(ALPHAS):
        strata.append((_RESONANT[(k + block) % 2], {"drive.alpha_re": alpha}))
        strata.append(others[k])
    return strata


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _sets(overrides: dict) -> list[str]:
    return [f"{key}={_fmt(value)}" for key, value in sorted(overrides.items())]


def _dispersive(rng: random.Random, photon_ev: float) -> dict:
    return {"drive.photon_energy_eV": _doubled_detuning(photon_ev),
            "mode.E_z_tilde_V_per_m":
                _DISPERSIVE_E_Z * rng.uniform(*_E_Z_SCALE)}


def _preset_op(rng: random.Random, name: str, fixed: dict) -> dict:
    over = dict(fixed)
    if name in ("fig2a", "fig2a_strong"):
        over["drive.photon_energy_eV"] = rng.uniform(6.19, 6.21)
        over["gate.theta_rad"] = math.pi * rng.uniform(0.97, 1.03)
    elif name == "fig2b":
        over.update(_dispersive(rng, _FIG2B_EV))
        over["initial.theta_1_rad"] = rng.uniform(0.2, math.pi - 0.2)
        over["initial.theta_2_rad"] = rng.uniform(0.2, math.pi - 0.2)
    elif name == "fig3":
        over.update(_dispersive(rng, _FIG3_EV))
    elif name == "s1_bragg":
        # the first revival of the alpha = 3 preset sits near 82 fs
        over["drive.photon_energy_eV"] = rng.uniform(6.19, 6.21)
        over["run.total_time_fs"] = rng.uniform(85.0, 95.0)
    elif name == "s2_ramannath":
        over["drive.photon_energy_eV"] = rng.uniform(6.19, 6.21)
        over["run.total_time_fs"] = rng.uniform(30.0, 40.0)
    return {"call": "experiment", "name": name, "sets": _sets(over)}


def _wstate_op(rng: random.Random, mode: str, n: int) -> dict:
    if mode == "analog":
        over = {"mode.box_edge_nm": rng.uniform(98.0, 102.0)}
    else:
        over = _dispersive(rng, _FIG3_EV)
    return {"call": "wstate", "mode": mode, "n": n, "sets": _sets(over)}


def make_block(workload: str, seed: int, block: int) -> list[dict]:
    """The ops of block `block` of `workload` under `seed`, in run order."""
    if workload == "chebyshev":
        return [with_method(op, FIXED_STEP)
                for op in make_block("presets", seed, block)]
    if workload == "presets":
        strata, build = _preset_strata(block), _preset_op
    elif workload == "wstate_register":
        strata, build = _WSTATE_STRATA, _wstate_op
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    # str seeds are hashed with SHA-512, so the stream is the same in every
    # interpreter regardless of PYTHONHASHSEED
    rng = random.Random(f"{workload}/{seed}/{block}")
    ops = [build(rng, *stratum) for stratum in strata]
    for k, op in enumerate(ops):
        op["id"] = f"{block}.{k}"
    return ops


def with_method(op: dict, method: str) -> dict:
    """The same op pinned to one propagation route."""
    sets = [s for s in op["sets"] if not s.startswith(METHOD_KEY + "=")]
    return {**op, "sets": sorted(sets + [f"{METHOD_KEY}={method}"])}


def route(op: dict) -> str:
    for s in op["sets"]:
        if s.startswith(METHOD_KEY + "="):
            return s.split("=", 1)[1]
    return EIGEN   # the default route of every preset


def other_route(op: dict) -> dict:
    """The op re-targeted at the propagation route it does not use."""
    return with_method(op, FIXED_STEP if route(op) == EIGEN else EIGEN)


def digest(ops: list[dict]) -> str:
    """SHA-256 of the canonical JSON of an op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# record metrics whose value must not depend on the propagation route
_CHECKED = ("fidelity", "leakage", "photon_mean", "entropy")
REL_TOL = 1e-8


def _checked_metrics(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if any(tag in k for tag in _CHECKED)
            and (v is None or isinstance(v, (int, float)))}


def disagreement(a: dict, b: dict) -> str | None:
    """First checked metric on which two records' metrics disagree, if any.

    Values agree when |a - b| <= 1e-8 * max(1, |a|); NaN never agrees.
    """
    ca, cb = _checked_metrics(a), _checked_metrics(b)
    if not ca:
        return "no checked metric in the record"
    if ca.keys() != cb.keys():
        return f"metric keys differ: {sorted(ca.keys() ^ cb.keys())}"
    for key in sorted(ca):
        va, vb = ca[key], cb[key]
        if va is None or vb is None:
            if va is not vb:
                return f"{key}: {va} vs {vb}"
            continue
        if not abs(va - vb) <= REL_TOL * max(1.0, abs(va)):
            return f"{key}: {va!r} vs {vb!r}"
    return None
