"""Set-up probe: what a fresh interpreter pays before its first op is ready.

Imports the package's CLI layer, as every `feqo-lab` invocation does, and
builds the first block of the op list.  `run.py` times this script end to end
in a child process.  Usage: setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import feqo_lab.cli  # noqa: E402,F401
from workloads import make_block  # noqa: E402

if __name__ == "__main__":
    make_block(sys.argv[1], int(sys.argv[2]), 0)
