"""Run a fixed list of named runs on two source trees and compare the files.

    python3 tools/compare_runs.py OLD_TREE NEW_TREE

Each tree runs the list once, in its own Python subprocess with that tree's
``src`` on ``PYTHONPATH``, writing under a temporary directory.  The report
lists the files written on one side only, the trajectory CSVs, plot-data
JSONs and density-matrix JSONs that differ in any byte, and, for each
summary, the keys of ``config``, ``derived``, ``metrics`` and ``files``
whose values differ (file paths with the output directory removed), with
the difference of each numeric value.  A run that raises is reported with
its error.  The exit status is 0 when every run succeeded and
both sides wrote the same files with the same contents, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_DYNAMIC = ("fig2a", "fig2a_strong", "fig2b", "fig3", "s1_bragg",
            "s2_ramannath")

# (run id, entry point, positional arguments, --set pairs); each run writes
# into its own directory, named after the run id
RUNS = [
    *((f"run-{name}", "run_experiment", [name], [])
      for name in ("params_only", "smith_purcell", *_DYNAMIC)),
    *((f"run-{name}-fixed_step", "run_experiment", [name],
       ["propagator.method=fixed_step"]) for name in _DYNAMIC),
    # a sample gap that does not divide the run time, on each route
    *((f"run-fig2a-gap10-{method}", "run_experiment", ["fig2a"],
       [f"propagator.method={method}", "propagator.sample_every_fs=10"])
      for method in ("eigen", "fixed_step")),
    *((f"gate-{gate}", "run_gate", [gate], [])
      for gate in ("rx", "ry", "rz", "iswap", "partial_iswap")),
    ("gate-rz-1.0", "run_gate", ["rz", 1.0], []),
    # three pulses joined into one trajectory, on the Chebyshev route
    ("gate-rz-1.0-fixed_step", "run_gate", ["rz", 1.0],
     ["propagator.method=fixed_step"]),
    ("gate-partial_iswap-0.3", "run_gate", ["partial_iswap", 0.3], []),
    *((f"wstate-{mode}-{n}", "run_wstate", [n, mode], [])
      for mode in ("analog", "digital") for n in (3, 4, 5)),
]

_WORKER = """
import json, sys
from feqo_lab.cli import experiments
out, errors = sys.argv[1], {}
for run_id, entry, args, sets in json.loads(sys.argv[2]):
    try:
        getattr(experiments, entry)(*args, out_dir=f"{out}/{run_id}",
                                    sets=sets)
    except Exception as exc:
        errors[run_id] = f"{type(exc).__name__}: {exc}"
print(json.dumps(errors))
"""

_SECTIONS = ("config", "derived", "metrics", "files")


def run_tree(tree: Path, out: Path) -> dict[str, str]:
    """Run every entry of RUNS on tree; return {run id: error} of failures."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _WORKER, str(out), json.dumps(RUNS)],
        env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the run list failed on {tree}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _section_diff(old, new) -> list[str]:
    """The keys (list positions for a list) whose values differ."""
    if isinstance(old, list):
        old, new = dict(enumerate(old)), dict(enumerate(new))
    lines = []
    for key in sorted(old.keys() | new.keys(), key=str):
        if key not in new:
            lines.append(f"{key}: only old ({old[key]!r})")
        elif key not in old:
            lines.append(f"{key}: only new ({new[key]!r})")
        elif old[key] != new[key]:
            a, b = old[key], new[key]
            delta = (f" (new - old = {b - a:.3g})"
                     if all(isinstance(v, float) for v in (a, b)) else "")
            lines.append(f"{key}: {a!r} -> {b!r}{delta}")
    return lines


def _summary_diff(old_root: Path, new_root: Path, rel: str) -> list[str]:
    old = json.loads((old_root / rel).read_text())
    new = json.loads((new_root / rel).read_text())
    for summary, root in ((old, old_root), (new, new_root)):
        summary["files"] = [str(Path(f).relative_to(root))
                            for f in summary["files"]]
    return [f"{section}.{line}" for section in _SECTIONS
            for line in _section_diff(old[section], new[section])]


def compare(old_root: Path, new_root: Path) -> list[str]:
    """Report lines for every difference between the two output trees."""
    old_files, new_files = _files(old_root), _files(new_root)
    report = [f"only in old: {rel}" for rel in sorted(old_files - new_files)]
    report += [f"only in new: {rel}" for rel in sorted(new_files - old_files)]
    for rel in sorted(old_files & new_files):
        if rel.endswith("_summary.json"):
            report += [f"{rel}: {line}"
                       for line in _summary_diff(old_root, new_root, rel)]
        elif (old_root / rel).read_bytes() != (new_root / rel).read_bytes():
            report.append(f"differs: {rel}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(p).resolve() for p in argv]
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("old", "new")]
        errors = [run_tree(tree, root) for tree, root in zip(trees, roots)]
        report = [f"{run_id} raises on the {side} side: {error}"
                  for side, side_errors in zip(("old", "new"), errors)
                  for run_id, error in sorted(side_errors.items())]
        report += compare(*roots)
        counts = [len(_files(root)) for root in roots]
    print(f"{len(RUNS)} runs; files written: old {counts[0]}, "
          f"new {counts[1]}")
    print("\n".join(report) if report else "no differences")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
