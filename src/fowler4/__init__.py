"""fowler4: a verification laboratory for the fourth-order strongly
coupled system Delta^2 u_i = |U|^{s-1} u_i near an isolated singularity.

The package cross-checks every computable object of the analysis:
cylindrical coefficients (printed tables vs two independent oracles),
exact solutions and kernels, the reduced ODE systems, slice-energy
functionals and their monotonicity, periodic critical-case orbits, and
the asymptotic regime classification -- with a discrepancy ledger
wherever printed constants disagree with independent derivation.

The public names below load their submodule on first use (PEP 562), so
``import fowler4`` costs nothing and the exact-arithmetic paths never
load numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "params": ("DomainError", "Params", "SpecialExponents", "gamma_exponent",
               "special_exponents"),
    "coefficients": ("BUILD_SIGMA", "CharSymbol", "char_symbol", "chain_rule_matrix",
                     "derive_cyl_coeffs_numeric", "hat_constant", "oracle_autonomous",
                     "printed_autonomous", "sign_report"),
    "integrate": ("Event", "StepUnderflowError", "Trajectory", "integrate"),
    "odes": ("equilibrium_state", "linearized_spectrum", "make_autonomous_rhs",
             "make_nonautonomous_rhs"),
    "profiles": ("AvilesProfile", "Bubble", "EmdenFowlerProfile", "RadialProfile",
                 "SingularPower", "green_ball", "inversion_map", "kelvin_transform"),
    "bubble": ("bubble_constant",),
    "levels": ("PohozaevLevels", "aviles_p_coeffs", "constant_level", "limiting_levels"),
    "pohozaev": ("aviles_hamiltonian", "hamiltonian_radial", "monotonicity_check_aviles",
                 "pohozaev_series"),
    "shooting": ("CriticalConstants", "ShootingResult", "critical_constants", "find_b",
                 "orbit_table"),
    "asymptotics": ("FitReport", "Regime", "RegimeReport", "classify_regime",
                    "fit_log_corrected", "fit_power_law", "residual_decay_check"),
    "ledger": ("DOCUMENTED_MISMATCHES", "LedgerEntry", "build_ledger", "check_ledger"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


class _Package(types.ModuleType):
    """The package module, which keeps ``fowler4.integrate`` the function.

    Loading a submodule binds it on its package under its own name, so the
    first import of the module ``fowler4.integrate`` (by a caller, or by
    any module that uses the integrator) would shadow the function.
    """

    def __setattr__(self, name, value):
        if name == "integrate" and isinstance(value, types.ModuleType):
            value = value.integrate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
