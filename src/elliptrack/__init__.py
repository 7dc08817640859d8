"""Elliptical extended object tracking with decoupled quadratic filters."""

from .batch import batch_update_axis, batch_update_orientation, step_batch
from .errors import (ConfigError, EllipTrackError, EmptyMeasurementSet,
                     MalformedRecord, NonFiniteState, SingularInnovation,
                     SingularPseudoCov, StepMisalignment)
from .measurements import (CenteredMeasurements, MeasurementSet,
                           SourceDistribution, build_pseudo,
                           sample_measurements)
from .metrics import (EllipseParams, ellipse_from_estimate, gwd_squared,
                      orientation_error)
from .sequential import (AxisMoments, StepDiagnostics,
                         axis_moments, orientation_moments, predict,
                         step_sequential, update_axis, update_orientation)
from .simulation import (CampaignSummary, RunResult, ScenarioConfig,
                         TrajectorySpec, TruthState, builtin_scenarios,
                         generate_truth, run_scenario, run_single)
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, clamp_axis_variance,
                    constant_velocity_transition, rot, wrap_angle)

__version__ = "0.7.0"
