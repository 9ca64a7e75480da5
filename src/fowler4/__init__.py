"""fowler4: a verification laboratory for the fourth-order strongly
coupled system Delta^2 u_i = |U|^{s-1} u_i near an isolated singularity.

The package cross-checks every computable object of the analysis:
cylindrical coefficients (printed tables vs two independent oracles),
exact solutions and kernels, the reduced ODE systems, slice-energy
functionals and their monotonicity, periodic critical-case orbits, and
the asymptotic regime classification -- with a discrepancy ledger
wherever printed constants disagree with independent derivation.
"""

__version__ = "0.1.0"

from .params import DomainError, Params, SpecialExponents, gamma_exponent, special_exponents
from .coefficients import (BUILD_SIGMA, CharSymbol, char_symbol, chain_rule_matrix,
                           derive_cyl_coeffs_numeric, hat_constant, hat_limits,
                           oracle_autonomous, printed_autonomous, sign_report)
from .integrate import Event, StepUnderflowError, Trajectory, integrate
from .odes import (equilibrium_state, equilibrium_value, linearized_spectrum,
                   make_autonomous_rhs, make_nonautonomous_rhs)
from .profiles import (AvilesProfile, Bubble, EmdenFowlerProfile, RadialProfile,
                       SingularPower, bubble_constant, green_ball, inversion_map,
                       kelvin_transform)
from .pohozaev import (PohozaevLevels, aviles_hamiltonian, aviles_p_coeffs,
                       hamiltonian_radial, limiting_levels, monotonicity_check_aviles,
                       pohozaev_series)
from .shooting import CriticalConstants, ShootingResult, critical_constants, find_b, orbit_table
from .asymptotics import (FitReport, Regime, RegimeReport, classify_regime,
                          fit_log_corrected, fit_power_law, residual_decay_check)
from .ledger import DOCUMENTED_MISMATCHES, LedgerEntry, build_ledger, check_ledger
