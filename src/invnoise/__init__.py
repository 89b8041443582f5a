"""Inverse-noise extraction and editing for next-scale token pyramids.

The package bundles a toy multi-scale residual-quantization codec, a
deterministic next-scale predictor, exact pseudo-inverses of Gumbel-max
sampling, noise-guided editing, quality metrics and a CLI, all driven by
counter-based keyed randomness so every result reproduces bit for bit.
Every name lives in its module: ``from invnoise.inversion import invert_pyramid``.
"""

__version__ = "0.1.0"
