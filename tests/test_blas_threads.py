"""numpy's OpenBLAS thread pool under `import noma_secrecy`.

The package runs on the calling thread alone, and each of its BLAS calls is
one vector-matrix product of 92 or 93 rows. If no BLAS thread variable is
set, `import noma_secrecy` loads numpy with one OpenBLAS thread, so no BLAS
worker busy-waits beside the calling thread, and leaves the environment as
it found it. OpenBLAS reads its thread count only when it loads, so each case
runs in a fresh interpreter.
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


def bare_numpy_threads():
    threads = run_fresh("import numpy\nprint(json.dumps(blas_threads()))")
    if threads is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas_get_num_threads64_")
    return threads


def test_the_package_loads_numpy_with_one_blas_thread_and_leaves_the_environment():
    bare_numpy_threads()  # skips where the count cannot be read
    body = """
environ = dict(os.environ)
import noma_secrecy
print(json.dumps([blas_threads(), dict(os.environ) == environ]))
"""
    assert run_fresh(body) == [1, True]


@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_a_blas_thread_variable_the_user_sets_wins(variable):
    # OpenBLAS takes no more threads than the CPUs the process may use.
    expected = min(2, bare_numpy_threads())
    body = f"import noma_secrecy\nprint(json.dumps([blas_threads(), os.environ[{variable!r}]]))"
    assert run_fresh(body, **{variable: "2"}) == [expected, "2"]


def test_numpy_imported_first_keeps_its_pool():
    expected = bare_numpy_threads()
    assert run_fresh("import numpy\nimport noma_secrecy\nprint(json.dumps(blas_threads()))") == expected


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
print(json.dumps(digests))
"""


def test_output_bits_do_not_depend_on_the_blas_pool():
    # Each pass sums by vector-matrix products of 92 or 93 rows, whose
    # rounding must not move with the number of OpenBLAS threads.
    one = run_fresh(DIGESTS, OPENBLAS_NUM_THREADS="1")
    assert len(one) == 13
    assert run_fresh(DIGESTS, OPENBLAS_NUM_THREADS="2") == one
