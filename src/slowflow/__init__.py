"""slowflow: mollifier calculus, explicit linearized-flow solution operators,
and numerical certification of the associated identities and inequalities on
truncated free-space grids."""

from .analysis import (SequenceProbe, convolution_bound_check, hardy_check,
                       lower_semicontinuity_check, quasi_derivative_residual,
                       quasi_divergence_residual, representation_reconstruct,
                       schwarz_check, strong_mean_distance,
                       time_minkowski_check, weak_pairing_probe)
from .energy import (DiagnosticsSeries, bound_suite, continuity_probe,
                     diagnostics_series, energy_balance_residual,
                     energy_inequality_check, holder_half_report)
from .fields import (DiagnosticsSample, FirstOrderSample, Grid3, ScalarField,
                     VectorField3, derive, divergence, first_order_diagnostics,
                     flow_energy, integrate, make_grid, sample_diagnostics,
                     sup_norm)
from .lerf import read_field, write_field
from .mollifier import (MollifierKernel, make_kernel, mollify,
                        mollify_derivative)
from .report import VerificationReport, make_report
from .stokes import (FlowState, FluidParams, ForcingField, forced_response,
                     heat_propagate, oseen_tensor_eval, pressure_field,
                     residual_check, solve_linearized)

__version__ = "0.1.0"
