"""Write the golden summary of every named run of ``compare_runs.RUNS``.

    PYTHONPATH=src python3 tools/write_golden.py

Each run of the list is executed once on this tree and leaves
``tests/golden/<run id>.json``: its summary's ``experiment``, ``config``,
``derived`` and ``metrics``, floats at full ``repr`` precision, and no file
paths.  ``tests/test_golden.py`` replays every such file and fails on any
value that moved.  A change that moves a pinned value on purpose rewrites
the files with this script and lists each moved key, old -> new.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from feqo_lab.cli import experiments

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
from compare_runs import RUNS  # noqa: E402

GOLDEN = TOOLS.parent / "tests" / "golden"
KEYS = ("experiment", "config", "derived", "metrics")


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for run_id, entry, args, sets in RUNS:
            record = getattr(experiments, entry)(
                *args, out_dir=Path(tmp) / run_id, fmt="json", sets=sets)
            summary = json.loads(Path(record.files[-1]).read_text())
            (GOLDEN / f"{run_id}.json").write_text(json.dumps(
                {key: summary[key] for key in KEYS}, indent=2,
                sort_keys=True) + "\n")
    print(f"wrote {len(RUNS)} golden files under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
