"""numpy's OpenBLAS thread pool and `import noma_secrecy`.

The package starts no thread and sets no process-wide state: `import
noma_secrecy` leaves numpy's OpenBLAS pool and the environment as a bare
`import numpy` would. OpenBLAS may split a wide pass's weight products over
that pool, and a column's bits must not depend on it. OpenBLAS reads its
thread count only when it loads, so each case runs in a fresh interpreter.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The thread count of the OpenBLAS that numpy bundles in numpy.libs, read
# through ctypes as the CI's numpy runtime step reads its core name; None
# where that library or its symbol is missing.
PRELUDE = """
import ctypes, glob, json, os, sys
sys.path.insert(0, sys.argv[1])

def blas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
    return None if get is None else get()
"""


def run_fresh(body, **variables):
    """Run PRELUDE + body in a fresh isolated interpreter whose environment
    has no BLAS thread variable but `variables`; return its printed JSON."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env.update(variables)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PRELUDE + body, str(SRC)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_noma_secrecy_keeps_numpys_blas_pool_and_the_environment():
    threads = run_fresh("import numpy\nprint(json.dumps(blas_threads()))")
    if threads is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas_get_num_threads64_")
    body = """
environ = dict(os.environ)
import noma_secrecy
print(json.dumps([blas_threads(), dict(os.environ) == environ]))
"""
    assert run_fresh(body) == [threads, True]


DIGESTS = """
import hashlib
import numpy as np
from noma_secrecy import sop
from noma_secrecy.config import RunConfig
from noma_secrecy.optimize import minmax_pa

config = RunConfig()
stats, targets = config.stats(), config.targets()
digests = {}
for columns in (198, 500, 1000, 2000):
    grid = np.linspace(0.01, 0.99, columns // 2)
    for order in (0, 2, 3):
        fields = [f for f in sop.exact_sops(stats, grid, targets, order) if f is not None]
        digests[f"exact_sops {columns} columns, order {order}"] = hashlib.sha256(b"".join(f.tobytes() for f in fields)).hexdigest()
outcome = minmax_pa(stats, targets)
digests["minmax_pa"] = hashlib.sha256(repr(outcome).encode()).hexdigest()
for columns in [*range(4, 401, 4), 1004, 2004, 4004]:
    terms = np.random.default_rng(columns).random((2, len(sop._INVERSE_NODES), columns))
    sums = sop._halving_sums(terms)
    digests[f"_halving_sums {columns} columns"] = hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest()
print(json.dumps(digests))
"""


def test_output_bits_do_not_depend_on_the_blas_pool():
    # Each pass sums by vector-matrix products of 92 or 93 rows, whose
    # rounding must not move with the number of OpenBLAS threads. Two
    # threads split a wide product's columns between them, evenly or not by
    # width, so DIGESTS also sums every padded width from 4 to 400 columns
    # and three wider ones. More threads cannot be tested on a 2-CPU
    # machine: OpenBLAS caps its pool at the CPUs the process may use.
    one = run_fresh(DIGESTS, OPENBLAS_NUM_THREADS="1")
    assert len(one) == 13 + 103
    assert run_fresh(DIGESTS, OPENBLAS_NUM_THREADS="2") == one
