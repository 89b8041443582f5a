"""Inverse-noise extraction and editing for next-scale token pyramids.

The package bundles a toy multi-scale residual-quantization codec, a
deterministic next-scale predictor, exact pseudo-inverses of Gumbel-max
sampling, noise-guided editing pipelines, quality metrics, and a CLI
harness, all driven by counter-based keyed randomness so every result
is reproducible bit for bit.
"""

from .codec import (
    Codebook,
    ScaleSchedule,
    decode,
    default_codebook,
    downsample_blockmean,
    encode,
    upsample_replicate,
)
from .editing import (
    EditConfig,
    EditResult,
    edit_regeneration,
    edit_with_inverse_noise,
    lambda_at,
)
from .errors import FormatError, InvariantError, ValidationError
from .gumbel import ks_statistic
from .inversion import (
    InverseNoiseSet,
    invert_pyramid,
    reconstruct_from_noise,
)
from .metrics import token_agreement
from .predictor import (
    Condition,
    PredictorParams,
    ScaleStepper,
    condition_embed,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "Condition",
    "EditConfig",
    "EditResult",
    "FormatError",
    "InvariantError",
    "InverseNoiseSet",
    "PredictorParams",
    "ScaleSchedule",
    "ScaleStepper",
    "ValidationError",
    "condition_embed",
    "decode",
    "default_codebook",
    "downsample_blockmean",
    "edit_regeneration",
    "edit_with_inverse_noise",
    "encode",
    "generate",
    "invert_pyramid",
    "ks_statistic",
    "lambda_at",
    "reconstruct_from_noise",
    "token_agreement",
    "upsample_replicate",
]
