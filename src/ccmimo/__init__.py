"""Cache-aided MIMO multicast delivery: combinatorial scheduling, stream
planning, beamformer optimization, and link-level rate simulation."""

from .beamforming import (BeamformerState, SolverOptions, StreamLayout,
                          group_svd_init, layout_for_subset, lmmse_receivers,
                          mse, optimize, per_user_rates, rate_objective, sinr,
                          solve_tx_with_power, update_duals, update_rates,
                          zf_beamformers, zf_leakage)
from .channel import ChannelSet, sample_channels, snr_to_power
from .config import NetworkConfig
from .delivery import (CodewordSet, DeliveryPlan, PlacementMap, build_codewords,
                       build_placement, dump_codewords, dump_plan,
                       freshness_audit, plan_transmissions, subpacketization,
                       verify_decode)
from .dof import DofPlan, optimize_dof, scan_dof, stream_bound, substream_count
from .errors import (ConfigError, DeliveryError, InputError, PlanError, SolverError)
from .evaluate import (RateReport, SweepPoint, fitted_stream_count,
                       monte_carlo_sweep, symmetric_rate)
from .oracle import max_rate_projected_gradient, rate_with_ideal_receivers

__version__ = "0.1.0"
