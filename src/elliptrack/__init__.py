"""Elliptical extended object tracking with decoupled quadratic filters."""

from .batch import (batch_update_axis, batch_update_kinematics,
                    batch_update_orientation, step_batch)
from .errors import (ConfigError, EllipTrackError, EmptyMeasurementSet,
                     MalformedRecord, NotPSD, SingularInnovation,
                     SingularPseudoCov, StepMisalignment)
from .measurements import (CenteredMeasurements, MeasurementSet,
                           SourceDistribution, build_pseudo,
                           center_measurements, sample_measurements)
from .metrics import (EllipseParams, ellipse_from_estimate, gwd_squared,
                      matrix_sqrt_2x2, orientation_error)
from .sequential import (AxisMoments, OrientationMoments, StepDiagnostics,
                         axis_moments, orientation_moments, predict,
                         step_sequential, update_axis, update_kinematics,
                         update_orientation)
from .simulation import (CampaignSummary, RunResult, ScenarioConfig,
                         TrajectorySpec, TruthState, builtin_scenarios,
                         generate_truth, run_scenario, run_single)
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, clamp_axis_variance,
                    constant_velocity_transition, rot, shape_matrix,
                    symmetrize_psd, wrap_angle)

__version__ = "0.3.0"
