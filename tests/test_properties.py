"""Property tests of the public API: discrimination, cloning and rates.

Hypothesis draws the inputs, derandomized and without an example database,
so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbc import tolerances as tol
from qbc.cloner import clone_entanglement, marginal_closed_form
from qbc.discrimination import helstrom
from qbc.infochannel import rate_region_closed_form, rate_region_oracle

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

unit = st.floats(-1.0, 1.0)
thetas = st.floats(0.0, math.pi / 2)
phis = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
crossovers = st.floats(0.0, 0.5)


@st.composite
def densities(draw):
    """g g^H / tr(g g^H) for a 2x2 complex g, plus a little of the identity."""
    g = np.array([complex(draw(unit), draw(unit)) for _ in range(4)]).reshape(2, 2)
    rho = g @ g.conj().T + 1e-9 * np.eye(2)
    return rho / np.trace(rho).real


@PROPERTY_SETTINGS
@given(densities(), densities(), st.lists(unit, min_size=4, max_size=4), st.floats(0, 1), st.floats(0, 1))
def test_helstrom_beats_any_measurement_then_guess(rho0, rho1, parts, t, s):
    """Data processing: measuring {M, I - M} and guessing cannot beat Helstrom."""
    v = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    proj = np.outer(v, v.conj()) / norm**2
    m0 = t * proj + s * (np.eye(2) - proj)
    p0 = [np.trace(rho0 @ m).real for m in (m0, np.eye(2) - m0)]
    p1 = [np.trace(rho1 @ m).real for m in (m0, np.eye(2) - m0)]
    guessed = 0.5 * sum(min(a, b) for a, b in zip(p0, p1))
    assert helstrom(rho0, rho1).error_prob <= guessed + tol.EQUALITY_TOL


@PROPERTY_SETTINGS
@given(thetas, phis)
def test_phi_invariance(theta, phi):
    assert abs(clone_entanglement(theta, phi) - clone_entanglement(theta, 0.0)) <= tol.EQUALITY_TOL
    error = helstrom(*marginal_closed_form(theta, phi)).error_prob
    reference = helstrom(*marginal_closed_form(theta, 0.0)).error_prob
    assert abs(error - reference) <= tol.EQUALITY_TOL


@PROPERTY_SETTINGS
@given(crossovers, crossovers, crossovers)
def test_rate_region_monotone_in_epsilon(pe, eps_a, eps_b):
    """More trade-off noise moves rate from the coarse to the fine branch."""
    lo = rate_region_closed_form(pe, min(eps_a, eps_b))
    hi = rate_region_closed_form(pe, max(eps_a, eps_b))
    assert lo.r1 <= hi.r1
    assert lo.r2 >= hi.r2


@PROPERTY_SETTINGS
@given(st.sampled_from((0.0, 0.5)), crossovers, st.booleans())
def test_closed_form_equals_oracle_at_endpoints(endpoint, other, endpoint_is_pe):
    pe, eps = (endpoint, other) if endpoint_is_pe else (other, endpoint)
    closed = rate_region_closed_form(pe, eps)
    oracle = rate_region_oracle(pe, eps)
    assert abs(closed.r1 - oracle.r1) <= tol.EQUALITY_TOL
    assert abs(closed.r2 - oracle.r2) <= tol.EQUALITY_TOL
