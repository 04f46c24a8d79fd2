"""Action-dependent Lagrangian systems as null geodesics of lifted metrics.

The package takes a system (h, A, V) over (x, u, w), builds the
(n+2)-dimensional lifted metric, integrates the geodesic flow and the
reduced action-dependent dynamics independently, and provides the
residuals that certify the two descriptions agree: null drift, the
redundancy of the u- and w-equations, symmetry identities at metric,
velocity and coefficient level, and charge conservation including the
nonlocally rescaled charges of action-dependent systems.
"""

from .cloud import DEFAULT_BOUNDS, halton, point_cloud, state_cloud
from .dynamics import (GeodesicState, IntegratorConfig, ReducedState,
                       ReducedTrajectory, Trajectory, herglotz_rhs,
                       homogeneity_residual, integrate_geodesic,
                       integrate_herglotz, lagrangian_w_slope, lift_state,
                       null_residual, reduce_trajectory, reduced_lagrangian,
                       u_equation_residual, w_equation_residual)
from .errors import (AsymmetricMetricError, BlowUpError, ExprEvalError,
                     ExprSyntaxError, FieldEvalError, HliftError,
                     MonotonicityViolationError, NonFiniteError,
                     NonPositiveUdotError, OverdampedUnsupportedError,
                     ScenarioError, SingularJacobianError, SingularMetricError,
                     StepLimitExceededError, UnknownIdentifierError,
                     ZeroUdotError)
from .expr import Field, as_field, free_names, parse, to_text
from .geometry import (BrinkmannMetric, CoordinateMap, FieldBundle,
                       HerglotzSystem, NearlySingularKineticWarning, Point,
                       conformal_factor_closed_form, conformal_pullback_check,
                       covariant_sym_grad, eval_vector_fields)
from .symmetry import (SymmetryGenerator, affine_charge, charge_series,
                       conformal_factor, conformal_killing_residual,
                       degreewise_identities, degreewise_max_residual,
                       killing_residual, noether_charge, nonlocal_charge,
                       symmetry_condition_residual, transform_rule_check)
from .systems import (CATALOG, CatalogEntry, conformal_pair, coupled_curved,
                      damped_action_dependent, damped_conformal_map,
                      damped_oscillation, damped_time_dependent,
                      factory_params, free_particle, harmonic_oscillator,
                      get_entry, standard_catalog, x_scaling_control)

__version__ = "0.1.0"
