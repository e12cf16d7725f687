"""Flat key-tree scenario configuration: schema, parser, overrides.

Config files are plain text, one ``dotted.key = value`` per line; blank lines
and lines starting with ``#`` are ignored and never carry semantics.  Keys
must match the schema exactly; unknown keys are rejected with the offending
path.  The same grammar backs repeatable ``--set key=value`` overrides.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any

from ..errors import FeqoLabError
from ..hilbert import default_fock_cutoff, default_window, make_basis
from ..physpar import ScenarioParams, make_scenario
from ..propagate import EIGEN_ORACLE, FIXED_STEP, PropagatorConfig

__all__ = ["ConfigError", "ScenarioConfig", "SCHEMA", "parse_config_text",
           "parse_set_overrides", "format_config"]


class ConfigError(FeqoLabError):
    """Schema violation or unparsable configuration input."""


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int(raw: str) -> int:
    return int(raw.strip(), 10)


def _float(raw: str) -> float:
    value = float(raw.strip())
    if math.isnan(value) or math.isinf(value):
        raise ValueError("must be finite")
    return value


def _str(raw: str) -> str:
    return raw.strip()


@dataclass(frozen=True)
class _Key:
    parse: Any
    choices: tuple | None = None
    positive: bool = False

    def convert(self, key: str, raw: str):
        try:
            value = self.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        if self.positive and not value > 0:
            raise ConfigError(f"{key}: must be positive, got {value}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{key}: must be one of {self.choices}, "
                              f"got {value!r}")
        return value


SCHEMA: dict[str, _Key] = {
    "electron.beta": _Key(_float),
    "drive.photon_energy_eV": _Key(_float, positive=True),
    "drive.alpha_re": _Key(_float),
    "drive.alpha_im": _Key(_float),
    "drive.grating_period_nm": _Key(_float, positive=True),
    "drive.phase_match_photon_energy_eV": _Key(_float, positive=True),
    "drive.incidence_theta_rad": _Key(_float),
    "mode.box_edge_nm": _Key(_float, positive=True),
    "mode.E_z_tilde_V_per_m": _Key(_float, positive=True),
    "model.dispersion_scale": _Key(_float, positive=True),
    "model.exact_kn": _Key(_bool),
    "basis.num_electrons": _Key(_int, positive=True),
    "basis.sidebands": _Key(_int, positive=True),
    "basis.fock_cutoff": _Key(_str),     # integer literal or "auto"
    "propagator.method": _Key(_str, choices=(EIGEN_ORACLE, FIXED_STEP)),
    "propagator.sample_every_fs": _Key(_float, positive=True),
    "propagator.norm_tol": _Key(_float, positive=True),
    "gate.type": _Key(_str, choices=("rx", "ry", "rz", "iswap",
                                     "partial_iswap")),
    "gate.theta_rad": _Key(_float),
    "gate.initial": _Key(_str, choices=("g", "e")),
    "wstate.convention": _Key(_str, choices=("arccos", "arcsin")),
    "run.total_time_fs": _Key(_float, positive=True),
    "initial.theta_1_rad": _Key(_float),
    "initial.theta_2_rad": _Key(_float),
}

# the keys to_scenario reads, then those with to_basis' and to_propagator's
SCENARIO_KEYS = frozenset(key for key in SCHEMA if key.startswith(
    ("electron.", "drive.", "mode.", "model.")))
DYNAMIC_KEYS = SCENARIO_KEYS | {key for key in SCHEMA
                                if key.startswith(("basis.", "propagator."))}

_LINE = re.compile(r"^\s*([A-Za-z0-9_.]+)\s*=\s*(.*?)\s*$")


def _lookup(key: str) -> _Key:
    if key in SCHEMA:
        return SCHEMA[key]
    raise ConfigError(f"unknown configuration key: {key}")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse the flat key-tree grammar into a typed dict."""
    out: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _LINE.match(line)
        if not match:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = match.group(1), match.group(2)
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        out[key] = _lookup(key).convert(key, raw)
    return out


def parse_set_overrides(pairs: list[str]) -> dict[str, Any]:
    """Parse repeated --set key=value flags."""
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        out[key] = _lookup(key).convert(key, raw.strip())
    return out


def format_config(cfg: dict[str, Any]) -> str:
    """Render a config dict back to the file grammar (stable key order)."""
    return "\n".join(f"{key} = {_render_raw(cfg[key])}"
                     for key in sorted(cfg)) + "\n"


@dataclass
class ScenarioConfig:
    """Validated flat configuration with typed access and factory helpers."""

    values: dict[str, Any]

    @classmethod
    def from_sources(cls, preset: dict[str, Any] | None = None,
                     file_text: str | None = None,
                     sets: list[str] | None = None) -> "ScenarioConfig":
        merged: dict[str, Any] = {}
        if preset:
            for key, val in preset.items():
                merged[key] = _lookup(key).convert(key, _render_raw(val))
        if file_text is not None:
            merged.update(parse_config_text(file_text))
        if sets:
            merged.update(parse_set_overrides(sets))
        cfg = cls(merged)
        cfg.validate()
        return cfg

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def validate(self):
        if "electron.beta" not in self.values:
            raise ConfigError("electron.beta is required")
        beta = self.values["electron.beta"]
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"electron.beta: must be in (0, 1), got {beta}")
        if "drive.photon_energy_eV" not in self.values:
            raise ConfigError("drive.photon_energy_eV is required")
        if ("drive.grating_period_nm" in self.values
                and "drive.phase_match_photon_energy_eV" in self.values):
            raise ConfigError("drive.phase_match_photon_energy_eV: the grating "
                              "is phase-matched only when no "
                              "drive.grating_period_nm is given")
        mode_keys = [k for k in ("mode.box_edge_nm", "mode.E_z_tilde_V_per_m")
                     if k in self.values]
        if len(mode_keys) != 1:
            raise ConfigError("give exactly one of mode.box_edge_nm, "
                              "mode.E_z_tilde_V_per_m")
        fock = self.values.get("basis.fock_cutoff", "auto")
        if fock != "auto":
            try:
                if int(fock) < 0:
                    raise ValueError
            except ValueError:
                raise ConfigError("basis.fock_cutoff: integer >= 0 or 'auto', "
                                  f"got {fock!r}") from None
        sidebands = self.values.get("basis.sidebands", 6)
        if sidebands < 2 or sidebands % 2:
            raise ConfigError("basis.sidebands must be an even count >= 2")

    # -- factories ---------------------------------------------------------

    def alpha(self) -> complex:
        return complex(self.get("drive.alpha_re", 0.0),
                       self.get("drive.alpha_im", 0.0))

    def to_scenario(self) -> ScenarioParams:
        v = self.values
        return make_scenario(
            beta=v["electron.beta"],
            photon_energy_eV=v["drive.photon_energy_eV"],
            alpha=self.alpha(),
            grating_period_nm=v.get("drive.grating_period_nm"),
            phase_match_photon_energy_eV=v.get(
                "drive.phase_match_photon_energy_eV"),
            box_edge_nm=v.get("mode.box_edge_nm"),
            E_z_tilde_V_per_m=v.get("mode.E_z_tilde_V_per_m"),
            incidence_theta_rad=v.get("drive.incidence_theta_rad", 0.0),
            dispersion_scale=v.get("model.dispersion_scale", 1.0),
            exact_kn=v.get("model.exact_kn", False),
        )

    def fock_cutoff(self) -> int:
        fock = self.get("basis.fock_cutoff", "auto")
        if fock == "auto":
            return default_fock_cutoff(self.alpha())
        return int(fock)

    def to_basis(self):
        return make_basis(self.get("basis.num_electrons", 1),
                          default_window(self.get("basis.sidebands", 6)),
                          self.fock_cutoff())

    def to_propagator(self, total_time_fs: float | None = None,
                      duration_key: str | None = None) -> PropagatorConfig:
        sample = self.get("propagator.sample_every_fs")
        if sample is None and total_time_fs:
            sample = total_time_fs / 200.0
        return PropagatorConfig(
            method=self.get("propagator.method", EIGEN_ORACLE),
            sample_every_fs=sample,
            norm_tol=self.get("propagator.norm_tol", 1e-8),
            duration_key=duration_key,
        )


def _render_raw(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)
