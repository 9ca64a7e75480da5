"""The slice energy as a Lyapunov function, and when it stops being one.

Inside the window (lower exponent, critical power) the energy H along
the reduced flow satisfies dH/dt = K1|V'|^2 - K3|V''|^2 >= 0; at the
critical power K1 = K3 = 0 and H is conserved.  At the lower exponent
the machinery becomes time dependent and the sign of the derivative
depends on the dimension: nonincreasing for n <= 7, nondecreasing for
n >= 8.

Run:  python demos/04_energy_monotonicity.py
"""

from fractions import Fraction

import numpy as np

from fowler4 import (Params, hamiltonian_radial, integrate, make_autonomous_rhs,
                     monotonicity_check_aviles, pohozaev_series)
from fowler4.integrate import Event
from fowler4.pohozaev import constant_state_trajectory

cap = Event(g=lambda t, y: 3.0 - max(map(abs, y)), direction=-1, terminal=True)
rng = np.random.default_rng(0)

print("== subcritical window (n=5, s=7): dH/dt >= 0 along the flow ==")
p = Params(5, Fraction(7))
rhs = make_autonomous_rhs(p)
traj = integrate(rhs, 0.0, rng.uniform(-0.5, 0.5, 4), 2.0,
                 rel_tol=1e-12, abs_tol=1e-14, events=[cap], guard=1e4)
series = pohozaev_series(p, traj, num=801)
mins = min(q.dH_numeric for q in series if not np.isnan(q.dH_numeric))
gaps = max(abs(q.dH_numeric - q.dH_formula)
           for q in series if not np.isnan(q.dH_numeric))
print(f"  span [0, {traj.t[-1]:.3f}], min numeric dH/dt = {mins:.3e} (>= 0), "
      f"max |numeric - formula| = {gaps:.1e}")

print()
print("== critical power (n=5, s=9): H conserved ==")
p9 = Params(5, Fraction(9))
rhs9 = make_autonomous_rhs(p9)
traj9 = integrate(rhs9, 0.0, np.array([0.8, 0.0, 0.05, 0.0]), 10.0,
                  rel_tol=1e-10, abs_tol=1e-13, events=[cap], guard=1e4)
ts = np.linspace(0.0, float(traj9.t[-1]), 100)
Hs = [hamiltonian_radial(p9, y) for y in traj9(ts)]
print(f"  H(0) = {Hs[0]:.12f}, max drift over the span = "
      f"{max(abs(h - Hs[0]) for h in Hs):.2e}")

print()
print("== lower exponent: the dimension split of the time-dependent energy ==")
for n in (5, 6, 7, 8, 9):
    tr = constant_state_trajectory(n, 100.0, 2000.0)
    print(f"  n={n}: settled slice energy is {monotonicity_check_aviles(n, tr)}")
