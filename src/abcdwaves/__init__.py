"""Exact cnoidal traveling-wave solutions of the abcd-Boussinesq system.

Modules by role:

- ``elliptic``:  Jacobi sn/cn/dn and K(m) from scratch (one cached AGM
  table; Bulirsch's sncndn, one sine and one cosine per argument),
  modulus convention (m enters identities as m^2), and the cn-series
  derivatives as one Horner polynomial in cn per order
- ``ratpoly`` / ``cnexpr``:  exact rational polynomial engine, the coefficient
  systems of the traveling-wave equations from their once-integrated cn
  polynomials and the named systems ``coeffs1``, ``coeffs2``, ``coeffs2red``
- ``reduction``:  ansatz-shape classification and machine-checked series
  termination chains
- ``families``:  exact formula functions of the five closed-form families,
  builders that validate and round them once, and the m -> 1 solitary limits
- ``solver``:  pinned numeric systems, damped Newton, multistart branch
  rediscovery, non-existence sweeps
- ``verifier``:  ODE residual, periodicity, BBM reduction, limit tables
- ``cli``:  abcdwaves command-line tool

Each exported name loads its module on first use (PEP 562), so the exact
layer (``ratpoly``, ``cnexpr``, ``reduction``, ``families``) and the
``reduce`` and ``classify`` subcommands run without numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name and module -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "elliptic": "JacobiPoint complete_k eval_cn_series jacobi_eval",
    "errors": "AbcdWavesError ChainBrokenError ConstraintError DomainError "
              "UnderdeterminedError UsageError",
    "families": "Branch ParameterSet SolutionParams build_family build_s43 build_s411 "
                "build_s412 build_s421 build_s422 check_physical_constraint m1_limit",
    "cnexpr": "CoefficientSystem build_coefficient_system build_named_system",
    "ratpoly": "RationalPoly",
    "reduction": "AnsatzShape classify_ansatz verify_termination",
    "solver": "BranchSet HSystemNumeric NewtonResult multistart pin_and_square "
              "promote_root reproduce_nonexistence solve_newton",
    "verifier": "ConvergenceTable ResidualReport bbm_reduction_check limit_a_to_zero "
                "limit_c_to_zero limit_m_to_one ode_residual periodicity_check",
}.items() for name in (module, *names.split())}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return module if name == _EXPORTS[name] else getattr(module, name)
