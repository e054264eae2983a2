"""Set-up probe, run in a fresh interpreter: import homsim and build the first
StageEngine of a workload, then print the seconds that took.

usage: python3 bench/setup_probe.py '<SystemParams fields as JSON>'
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import homsim  # noqa: E402

homsim.StageEngine(homsim.SystemParams(**json.loads(sys.argv[1])))
print(repr(time.perf_counter() - _t0))
