"""Online convex optimization under long-term constraints.

Queue-regulated online mirror prox: a primal-dual method whose dual state
is a vector of backlog-style queues, one per constraint.  Regret adapts to
the gradient variation of the loss sequence while cumulative constraint
violations stay bounded by the final queue length.  A dedicated variant
covers the probability simplex under the entropic geometry.
"""

from .algorithm import (VARIANT_BASELINE, VARIANT_GENERAL, VARIANT_SIMPLEX,
                        VARIANTS, HyperParams, Scenario, alpha_closed_form,
                        alpha_update, hyperparams_from_variation, mix_anchor,
                        queue_update, run, run_batch, xi_value)
from .checks import (CheckReport, check_descent_lemma, check_dpp_over_trace,
                     check_mixing, check_pushback, check_queue_lemma,
                     write_check_csv)
from .errors import (ConfigError, ConvergenceError, DimensionMismatchError,
                     DomainError, InfeasibleError, OracleError,
                     QueueproxError, ScheduleError, UnsupportedFamilyError)
from .geometry import (Ball, Box, Simplex, bregman, center, contains,
                       diameter_bound, dual_norm, mirror_step, norm, project,
                       sample)
from .harness import (SHIPPED_SCENARIOS, ScenarioConfig, SweepResult,
                      SweepSpec, build_scenario, fit_loglog_slope,
                      run_scenario, shipped_scenario, sweep,
                      write_shipped_configs)
from .metrics import (MetricsReport, append_summary_row, empirical_variation,
                      regret, violation, violation_bound_check,
                      write_round_csv)
from .problems import (ConstraintBlock, LossSequence, alternating,
                       constraint_eval, custom_sequence, empty_block,
                       fixed_linear, fixed_quadratic, gradient_variation,
                       hindsight_comparator, linear_block, linear_drift,
                       quadratic_block, quadratic_drift, rotating_drift,
                       stack_blocks)
from .trace import RunSummary, RunTrace

__version__ = "0.1.0"

__all__ = [
    "VARIANT_BASELINE", "VARIANT_GENERAL", "VARIANT_SIMPLEX", "VARIANTS",
    "HyperParams", "Scenario", "alpha_closed_form", "alpha_update",
    "hyperparams_from_variation", "mix_anchor", "queue_update", "run",
    "run_batch", "xi_value",
    "CheckReport", "check_descent_lemma", "check_dpp_over_trace",
    "check_mixing", "check_pushback", "check_queue_lemma", "write_check_csv",
    "ConfigError", "ConvergenceError", "DimensionMismatchError",
    "DomainError", "InfeasibleError", "OracleError", "QueueproxError",
    "ScheduleError", "UnsupportedFamilyError",
    "Ball", "Box", "Simplex", "bregman", "center", "contains",
    "diameter_bound", "dual_norm", "mirror_step", "norm", "project", "sample",
    "SHIPPED_SCENARIOS", "ScenarioConfig", "SweepResult", "SweepSpec",
    "build_scenario", "fit_loglog_slope", "run_scenario",
    "shipped_scenario", "sweep", "write_shipped_configs",
    "MetricsReport", "append_summary_row", "empirical_variation", "regret",
    "violation", "violation_bound_check", "write_round_csv",
    "ConstraintBlock", "LossSequence", "alternating",
    "constraint_eval", "custom_sequence", "empty_block",
    "fixed_linear", "fixed_quadratic", "gradient_variation",
    "hindsight_comparator", "linear_block", "linear_drift",
    "quadratic_block", "quadratic_drift", "rotating_drift", "stack_blocks",
    "RunSummary", "RunTrace",
]
