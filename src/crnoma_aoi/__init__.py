"""Age-of-information analysis and simulation for TDMA and CR-NOMA uplinks.

A legacy TDMA uplink is augmented with cognitive-radio inspired NOMA so that
paired users get a second transmission opportunity per frame.  The package
provides closed-form average-AoI expressions for both schemes under two data
generation models (generate-at-will and generate-at-request), an exact
event-level Monte Carlo simulator, and independent validation oracles.
"""

from .analytic import (Partition, crnoma_gar_overall, crnoma_gar_user_aoi,
                       crnoma_gaw_aoi, delta_k0, delta_kernel, gar_high_snr_gap,
                       gar_partition_user_m, gar_partition_user_mprime,
                       gaw_high_snr_aoi, gaw_partition, tau_of, tdma_gar_overall,
                       tdma_gar_user_aoi, tdma_gaw_aoi)
from .model import (SystemConfig, db_to_linear, draw_gains, epsilon_of,
                    primary_success, secondary_capped_success,
                    secondary_solo_success)
from .simulator import AoiReport, run

__version__ = "0.1.0"

__all__ = [
    "AoiReport", "Partition", "SystemConfig",
    "crnoma_gar_overall", "crnoma_gar_user_aoi", "crnoma_gaw_aoi",
    "db_to_linear", "delta_k0", "delta_kernel", "draw_gains",
    "epsilon_of", "gar_high_snr_gap", "gar_partition_user_m",
    "gar_partition_user_mprime", "gaw_high_snr_aoi", "gaw_partition",
    "primary_success", "run", "secondary_capped_success",
    "secondary_solo_success", "tau_of",
    "tdma_gar_overall", "tdma_gar_user_aoi", "tdma_gaw_aoi",
]
