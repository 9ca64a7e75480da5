"""The set-up a user pays before the first result: interpreter start,
`import fowler4`, and the first-call set-up of each workload (critical
constants, the Dormand-Prince tableau in both precisions, the autonomous
right-hand sides).  Timed from outside as a whole process."""

import numpy as np

from fowler4 import Params, integrate, make_autonomous_rhs
from fowler4.shooting import critical_constants, make_critical_rhs

if __name__ == "__main__":
    for n in (5, 6):
        make_critical_rhs(critical_constants(n), np.longdouble)
    for dtype in (np.float64, np.longdouble):
        integrate(lambda t, y: -y, 0.0, np.ones(4, dtype=dtype), 0.1)
    for n, s in ((5, 7), (6, 4), (7, 3)):
        make_autonomous_rhs(Params(n, s, 3))
