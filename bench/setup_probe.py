"""One measurement of a workload's set-up: importing the package and
building the workload's inputs, from a fresh interpreter.  Prints the
seconds taken, then the seconds of one ``reference`` chunk timed after
it, by which ``run.py`` scales the set-up to the reference speed.
``run.py`` starts it several times per run.

    python3 bench/setup_probe.py WORKLOAD
"""

import sys
import tempfile
import time

t0 = time.perf_counter()

import source  # noqa: E402

source.import_package()
import workloads  # noqa: E402

with tempfile.TemporaryDirectory(dir=source.RESULTS) as workdir:
    workloads.build(sys.argv[1], workdir)
    elapsed = time.perf_counter() - t0
import reference  # noqa: E402

print(repr(elapsed), repr(reference.chunk()))
