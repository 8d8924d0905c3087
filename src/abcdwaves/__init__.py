"""Exact cnoidal traveling-wave solutions of the abcd-Boussinesq system.

Modules by role:

- ``elliptic``:  Jacobi sn/cn/dn and K(m) from scratch (one cached AGM
  table; Bulirsch's sncndn, one sine and one cosine per argument),
  modulus convention (m enters identities as m^2), and the cn-series
  derivatives as one Horner polynomial in cn per order
- ``ratpoly`` / ``cnexpr``:  exact rational polynomial engine and the
  coefficient systems of the traveling-wave equations, collected from
  their once-integrated cn polynomials
- ``reduction``:  ansatz-shape classification and machine-checked series
  termination chains
- ``families``:  exact formula functions of the five closed-form families,
  builders that validate and round them once, and the m -> 1 solitary limits
- ``solver``:  pinned numeric systems, damped Newton, multistart branch
  rediscovery, non-existence sweeps
- ``verifier``:  ODE residual, periodicity, BBM reduction, limit tables
- ``cli``:  abcdwaves command-line tool
"""

__version__ = "0.1.0"

from .elliptic import JacobiPoint, complete_k, eval_cn_series, jacobi_eval
from .errors import (AbcdWavesError, ChainBrokenError, ConstraintError,
                     DomainError, UnderdeterminedError, UsageError)
from .families import (Branch, ParameterSet, SolutionParams, build_family,
                       build_s43, build_s411, build_s412, build_s421,
                       build_s422, check_physical_constraint, m1_limit)
from .cnexpr import CoefficientSystem, build_coefficient_system
from .ratpoly import RationalPoly
from .reduction import AnsatzShape, classify_ansatz, verify_termination
from .solver import (BranchSet, HSystemNumeric, NewtonResult,
                     build_named_system, multistart, pin_and_square,
                     promote_root, reproduce_nonexistence, solve_newton)
from .verifier import (ConvergenceTable, ResidualReport, bbm_reduction_check,
                       limit_a_to_zero, limit_c_to_zero, limit_m_to_one,
                       ode_residual, periodicity_check)

__all__ = [name for name in dir() if not name.startswith("_")]
