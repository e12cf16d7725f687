"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical-tolerance failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ..errors import (BasisError, DomainError, PropagationError,
                      TruncationError)
from .. import analytics
from .config import SCENARIO_KEYS, ConfigError, format_config
from .experiments import (_derived_dict, _jsonable, _merged_config,
                          available_experiments, run_experiment, run_gate,
                          run_wstate)
from .presets import PRESETS

EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _config_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="Flat key-tree config file.")(fn)
    return click.option("--set", "sets", multiple=True, metavar="KEY=VALUE",
                        help="Override one config key (repeatable).")(fn)


def _common_options(fn):
    fn = click.option("--out", "out_dir", default=".", show_default=True,
                      help="Output directory.")(_config_options(fn))
    return click.option("--format", "fmt", default="both", show_default=True,
                        type=click.Choice(["csv", "json", "both"]))(fn)


def _run_guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConfigError, DomainError, BasisError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (TruncationError, PropagationError) as exc:
        click.echo(f"numerical-tolerance failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICS)


def _read_config(config_path):
    return Path(config_path).read_text() if config_path else None


def _preset_config(preset, config_path, sets):
    scenario = {k: v for k, v in PRESETS[preset].items() if k in SCENARIO_KEYS}
    return _merged_config(scenario, SCENARIO_KEYS, {}, None,
                          _read_config(config_path), list(sets))


def _echo(payload):
    click.echo(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


@click.group()
@click.version_option(package_name="feqo-lab")
def cli():
    """Fully quantized free-electron quantum optics at desk scale."""


@cli.command()
@click.option("--preset", default="params_only", show_default=True,
              type=click.Choice(sorted(PRESETS)))
@_config_options
def params(preset, config_path, sets):
    """Echo the derived parameter pipeline for a scenario."""
    def go():
        cfg = _preset_config(preset, config_path, sets)
        _echo({"config": cfg.values,
               "derived": _derived_dict(cfg.to_scenario())})
    _run_guarded(go)


@cli.command()
@click.argument("experiment", type=click.Choice(sorted(available_experiments())))
@_common_options
def run(experiment, config_path, sets, out_dir, fmt):
    """Run a named experiment preset and write its result files."""
    record = _run_guarded(run_experiment, experiment, out_dir=out_dir, fmt=fmt,
                          config_text=_read_config(config_path),
                          sets=list(sets))
    _echo(record.to_dict())


@cli.command()
@click.argument("gate_type", type=click.Choice(["rx", "ry", "rz", "iswap",
                                                "partial-iswap"]))
@click.option("--theta", type=float, default=None,
              help="Rotation angle in rad; rx, ry, rz and partial-iswap only.")
@_common_options
def gate(gate_type, theta, config_path, sets, out_dir, fmt):
    """Schedule and execute a single gate on its preset scenario."""
    record = _run_guarded(run_gate, gate_type.replace("-", "_"), theta,
                          out_dir=out_dir, fmt=fmt, sets=list(sets),
                          config_text=_read_config(config_path))
    _echo(record.to_dict())


@cli.command()
@click.option("--n", "n_qubits", type=int, required=True, help="Qubit count.")
@click.option("--mode", type=click.Choice(["digital", "analog"]),
              default="digital", show_default=True)
@_common_options
def wstate(n_qubits, mode, config_path, sets, out_dir, fmt):
    """Prepare an N-qubit W state digitally or via the analog TC block."""
    record = _run_guarded(run_wstate, n_qubits, mode, out_dir=out_dir,
                          fmt=fmt, sets=list(sets),
                          config_text=_read_config(config_path))
    _echo(record.to_dict())


@cli.group(name="analytics")
def analytics_group():
    """Closed-form collapse/revival predictions and regime classification."""


@analytics_group.command()
@click.option("--preset", default="s1_bragg", show_default=True,
              type=click.Choice(sorted(PRESETS)))
@_config_options
def collapse(preset, config_path, sets):
    """Report collapse and revival times for a scenario."""
    def go():
        cfg = _preset_config(preset, config_path, sets)
        pred = analytics.collapse_revival_times(
            cfg.alpha(), cfg.to_scenario().coupling.g_rad_per_fs)
        _echo({
            "alpha_abs": abs(cfg.alpha()),
            "g_rad_per_fs": pred.g_rad_per_fs,
            "t_coll_gaussian_fs": pred.t_coll_gaussian_fs,
            "t_c_adjacent_fs": pred.t_c_adjacent_fs,
            "t_rev_fs": pred.t_rev_fs,
        })
    _run_guarded(go)


@analytics_group.command()
@click.option("--preset", default="fig2a", show_default=True,
              type=click.Choice(sorted(PRESETS)))
@click.option("--kappa", type=float, default=0.5, show_default=True,
              help="Bragg/Raman-Nath threshold on g*sqrt(nbar+1)/omega_rec.")
@_config_options
def regime(preset, kappa, config_path, sets):
    """Classify the diffraction regime of a scenario (heuristic)."""
    def go():
        cfg = _preset_config(preset, config_path, sets)
        _echo(analytics.classify_regime(cfg.to_scenario(), cfg.alpha(),
                                        kappa=kappa).__dict__)
    _run_guarded(go)


@cli.group()
def presets():
    """Preset management."""


@presets.command()
@click.option("--out", "out_dir", default=".", show_default=True,
              help="Directory for the emitted .cfg files.")
def dump(out_dir):
    """Write every embedded preset as a config file for diffing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, preset in sorted(PRESETS.items()):
        path = out / f"{name}.cfg"
        path.write_text(format_config(preset))
        click.echo(str(path))


if __name__ == "__main__":
    cli()
