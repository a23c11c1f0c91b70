#!/usr/bin/env python3
"""Entry point: ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Puts the repo's ``src/`` and this package's parent on ``sys.path`` and
pins ``PYTHONHASHSEED`` (set/dict iteration order feeds wall time), then
hands over to :mod:`e2e.cli`.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

from e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
