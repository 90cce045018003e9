"""Entry point named in ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0|1`` is ``python -m benchmarks.e2e run ...`` run from the
repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
