"""Set-up as a user pays it: a fresh interpreter imports ``apcl.cli`` and
turns one workload's plain inputs into the program's objects (parsed
configs, or built decide instances), then prints its own split as JSON.

    python3 bench/setup_child.py WORKLOAD INPUTS.pickle

The plain inputs are generated by the caller and loaded here before the
clock starts, so only the import and apcl's own parse/build calls count.
"""

import json
import pickle
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

workload = sys.argv[1]
with open(sys.argv[2], "rb") as fh:
    plain = pickle.load(fh)

t0 = time.perf_counter()
import apcl.cli  # noqa: E402,F401

t1 = time.perf_counter()
import passes  # noqa: E402

passes.build_inputs(workload, plain)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
