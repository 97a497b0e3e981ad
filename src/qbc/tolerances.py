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

# Optimizer defaults. The gradient tolerance is relative: a start converges
# once |omega| <= OPTIMIZER_GRAD_TOL * sin^2(theta). The line search stops
# seeing gains near 1e-8 of that scale, where the objective rounds.
OPTIMIZER_STEP_INIT = 0.1
OPTIMIZER_GRAD_TOL = 1e-6
OPTIMIZER_MAX_ITERS = 5000
