"""tokcomp: visual token compression primitives and a toy pipeline simulator.

Library surface in one import: token containers, spectral pruning,
orthogonal 2D merging, the pipeline simulator with its baselines, FLOPs
accounting, and the smoothing-theory check.
"""

from .errors import (FormatError, ProjectorCompatibilityError, ScheduleError,
                     ShapeError)
from .images import load_grid
from .merging import (merge_flat, merge_height, merge_step, merge_width,
                      similarity_op_count)
from .metrics import (CompressionReport, LayerCount, layer_flops, pipeline_flops,
                      reduction_ratio)
from .pipeline import (BASELINE_KINDS, CompressionSchedule, baseline_compress,
                       default_keep_ladder, encoder_forward, llm_forward,
                       no_compression_schedule, projector_pixel_shuffle,
                       run_experiment)
from .spectral import (EnergyRanking, apply_filter, cutoff_from_ratio,
                       dft_forward, dft_inverse, make_filter, spectral_prune,
                       token_energy)
from .theory import SmoothingTrace, dc_component, hc_component, smoothing_trace
from .tokens import (ComplexSequence, TokenGrid, TokenSequence, concat_tokens,
                     grid_from_sequence, read_luvc1, sequence_from_grid,
                     write_luvc1)
from .toymodel import ToyModelConfig

__version__ = "0.1.0"
