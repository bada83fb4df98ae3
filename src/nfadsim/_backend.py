"""Kernel compilation backend selection.

Hot loops are written as plain Python functions that numba can compile in
nopython mode.  By default they are wrapped with ``numba.njit``; setting the
environment variable ``NFADSIM_DISABLE_NUMBA=1`` (or running without numba
installed) executes the very same function objects as ordinary Python.

Both paths use ``math.*`` scalar routines only and draw the same uniforms in
the same order, so their outputs are bit-identical.  Under numba the kernels
call ``Generator.random()`` directly.  In the interpreter they read the
buffered, exact sources of ``RandomStream.uniforms``, which are rewound on
exit so every generator ends in the state scalar calls would leave, and
they take Python scalars and lists (``kernel_sequence``), not numpy ones.
``tests/test_backends.py`` checks both draw paths; the Python path is the
one ``python -m nfadsim.bench`` measures where numba is not installed.
"""

import os

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False


def _env_disabled() -> bool:
    return os.environ.get("NFADSIM_DISABLE_NUMBA", "0") not in ("", "0")


USE_NUMBA = HAS_NUMBA and not _env_disabled()


def compile_kernel(func):
    """Return the accelerated form of *func* (or *func* itself when disabled).

    When numba is active the returned dispatcher keeps the original under
    ``.py_func``, which the benchmark and backend-equivalence tests use.
    """
    if USE_NUMBA:
        return numba.njit(cache=True)(func)
    return func


def kernel_sequence(array):
    """A numpy array as a kernel input: itself under numba, else a list.

    The interpreter indexes a list of Python scalars several times faster
    than an array, and does arithmetic on what it returns faster too.
    """
    return array if USE_NUMBA else array.tolist()


def backend_name() -> str:
    return "numba" if USE_NUMBA else "python"
