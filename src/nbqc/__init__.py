"""Non-binary QC-LDPC toolkit: construction, structure verification,
layered Min-Max decoding, shuffle-network scheduling and cost modeling."""

from .gf import GF2m
from .construct import (
    CLASS_I,
    CLASS_II,
    CodeSpec,
    ParityCheck,
    SubgroupIndexing,
    build_base_class1,
    build_base_class2,
    build_code,
    cpm,
    index_subgroup,
    random_index_subgroup,
)
from .decode import (
    LAYER_I,
    DecodeResult,
    DecoderConfig,
    build_layer_schedule,
    channel_reliability,
    check_node_min_max,
    run_monte_carlo,
)
from .shuffle import (
    BenesNetwork,
    build_index_matrix,
    iteration_moves,
    route_schedule,
    schedule_driven_decode,
)
from .verify import PropertyReport, verify_class1, verify_class2
from .cost import CostBreakdown, CostParams, render_report, savings

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
