"""Numba acceleration switch.

Hot kernels are compiled with ``numba.njit`` when numba is importable and the
``QBC_DISABLE_NUMBA`` environment variable is unset (or "0"). Setting
``QBC_DISABLE_NUMBA=1`` selects the pure-numpy fallback: the identical source
runs uncompiled, so both paths execute the same arithmetic in the same order.

``qbcbench/run.py`` reports which path a benchmark run used.
"""

import os

NUMBA_ENABLED = os.environ.get("QBC_DISABLE_NUMBA", "0").strip().lower() not in (
    "1",
    "true",
    "yes",
)

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        """Stand-in for numba.njit that returns the function unchanged."""
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate
