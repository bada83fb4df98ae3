"""The kernel backend, as benchmark reports name it.

The kernels in ``_kernels`` run as plain Python functions in the
interpreter; there is no other backend.
"""


def backend_name() -> str:
    return "python"
