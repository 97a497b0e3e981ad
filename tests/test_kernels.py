"""Compiled kernels against their uncompiled source: identical bits."""

import numpy as np
import pytest

from qbc._accel import NUMBA_ENABLED
from qbc._kernels import ascend, clone_lambda, jacobi_eigh, rotate, rotation_grad

needs_numba = pytest.mark.skipif(not NUMBA_ENABLED, reason="fallback mode already runs py_func")


@needs_numba
class TestCompiledMatchesSource:
    def test_jacobi(self):
        rng = np.random.default_rng(61)
        for k in range(50):
            dim = 2 if k % 2 else 4
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = np.ascontiguousarray((g + g.conj().T) / 2)
            w_c, v_c = jacobi_eigh(m)
            w_p, v_p = jacobi_eigh.py_func(m)
            assert np.array_equal(w_c, w_p)
            assert np.array_equal(v_c, v_p)

    def test_objective_and_gradient(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            v, d, phi = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3)
            assert clone_lambda(v, d) == clone_lambda.py_func(v, d)
            assert np.array_equal(rotation_grad(v, d), rotation_grad.py_func(v, d))
            assert np.array_equal(rotate(v, phi), rotate.py_func(v, phi))

    def test_full_ascent(self):
        # py_func here drives the compiled inner kernels; the pure path end
        # to end is exercised via QBC_DISABLE_NUMBA in test_cli
        rng = np.random.default_rng(65)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rot = np.ascontiguousarray(q * np.sign(np.linalg.det(q)))
            out_c = ascend(rot, 0.5, 0.1, 1e-6, 5000)
            out_p = ascend.py_func(rot, 0.5, 0.1, 1e-6, 5000)
            assert np.array_equal(out_c[0], out_p[0])
            assert out_c[1:] == out_p[1:]
