"""Central tolerance table.

Library code and the test/verification suites read every numerical threshold
from here so the two always agree.
"""

# Entrywise / scalar equality of quantities that are exact in real arithmetic.
EQUALITY_TOL = 1e-12

# Validation of inputs at API boundaries (hermiticity, ket normalization).
VALIDATION_TOL = 1e-9

# Most negative eigenvalue admitted for a positive-semidefinite operator.
EIGENVALUE_FLOOR = -1e-10

# Spectral decomposition: reconstruction and orthonormality checks.
RECONSTRUCTION_TOL = 1e-10

# Constraint residual bound for cloning parameters labeled feasible.
FEASIBILITY_TOL = 1e-9

# Optimizer ascent of g = lambda / sin^2(theta): first trial step, gradient
# tolerance and iteration cap. OPTIMIZER_STEP_INIT is the first iteration's
# first trial step; later gradient steps start from twice the last accepted
# one, and Newton steps take their own length. A start converges once
# |grad g| <= OPTIMIZER_GRAD_TOL. The line search stops seeing gains near
# |grad g| = 1e-8, where g rounds.
OPTIMIZER_STEP_INIT = 0.1
OPTIMIZER_GRAD_TOL = 1e-6
OPTIMIZER_MAX_ITERS = 5000
