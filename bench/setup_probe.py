"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints {"import_s": ..., "build_s": ..., "scale": ...}: the time of
`import joincond` (numpy included), of building the workload's inputs
after it, and the factor that scales both to the reference speed
(bench/speed.py, interpreter kernel), measured right after.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

start = perf_counter()
import joincond  # noqa: E402
import joincond.cli  # noqa: E402,F401

imported = perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](joincond, int(sys.argv[2]), Path(sys.argv[3]), False)
built = perf_counter()
import speed  # noqa: E402

print(json.dumps({"import_s": imported - start, "build_s": built - imported,
                  "scale": speed.scale_now("interpreter")}))
