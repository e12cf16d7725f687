"""Replay every golden summary and pin its numbers.

Each file under tests/golden/ (written by tools/write_golden.py) holds a
run's experiment, config, derived parameters and metrics.  A summary is a
complete replay key: its config, fed back through the run it names,
reproduces every value.  A float may move by 1e-10 relative, with an
absolute floor of 1e-12 for round-off values such as a vacuum photon mean
of 1e-25; every other value must match exactly.
"""

import json
import math
from pathlib import Path

import pytest

from feqo_lab.cli import experiments

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))
KEYS = ("experiment", "config", "derived", "metrics")


def moved(old, new, path):
    """Key paths of the values of new that moved from old."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{path}[{i}]")
    elif isinstance(old, float) and isinstance(new, float):
        if not math.isclose(old, new, rel_tol=1e-10, abs_tol=1e-12):
            yield f"{path}: {old!r} -> {new!r}"
    elif old != new or type(old) is not type(new):
        yield f"{path}: {old!r} -> {new!r}"


def test_every_named_run_is_pinned():
    assert len(GOLDEN) == 30


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_replay_reproduces_the_golden_summary(path, tmp_path):
    golden = json.loads(path.read_text())
    record = experiments._run(golden["experiment"], {}, golden["config"],
                              tmp_path, "json", None, None)
    summary = json.loads(Path(record.files[-1]).read_text())
    assert list(moved(golden, {key: summary[key] for key in KEYS},
                      path.stem)) == []
