"""Bundled demo scenes.

Two seeded scenes, each a decoded generated pyramid plus a little
keyed detail noise, with a fixed edit-region mask and a source/target
label pair.  Everything is derived from constants here, so the fixtures
are reproducible without shipping binary files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import decode
from .errors import ValidationError
from .predictor import PredictorParams, condition_embed, generate
from .rng import PURPOSE_SCENE, normal_values

# Scene structure is scaled well past the codebook's unit ball so a
# single regenerated scale cannot cancel it; preservation then has to
# come from the copied prefix or the inverse noise.
STRUCTURE_GAIN = 2.5
DETAIL_AMPLITUDE = 0.05


@dataclass(frozen=True)
class DemoScene:
    source_label: str
    target_label: str
    scene_seed: int


_SCENES = {
    "scene-a": DemoScene(
        source_label="red brick house among pines",
        target_label="blue glass tower among pines",
        scene_seed=2024,
    ),
    "scene-b": DemoScene(
        source_label="orange desert dunes at noon",
        target_label="green grassy hills at noon",
        scene_seed=4096,
    ),
}


def scene_record(name: str) -> DemoScene:
    try:
        return _SCENES[name]
    except KeyError:
        raise ValidationError(
            f"unknown demo scene {name!r}; available: {', '.join(_SCENES)}"
        ) from None


def demo_scene(name: str, params: PredictorParams) -> tuple[np.ndarray, np.ndarray, DemoScene]:
    """Return (grid, edit mask, scene record) for a bundled scene."""
    scene = scene_record(name)
    cond = condition_embed(scene.source_label, params)
    pyramid = generate(cond, params, seed=scene.scene_seed)
    grid = STRUCTURE_GAIN * decode(pyramid, params.codebook, params.schedule)
    d = params.codebook.dim
    h, w = params.schedule.finest
    detail = normal_values(
        scene.scene_seed,
        PURPOSE_SCENE,
        0,
        np.arange(h)[:, None, None],
        np.arange(w)[None, :, None],
        np.arange(d)[None, None, :],
    )
    grid = grid + DETAIL_AMPLITUDE * np.moveaxis(detail, -1, 0)
    return grid, demo_mask(name, (h, w)), scene


def demo_mask(name: str, shape: tuple[int, int]) -> np.ndarray:
    """Edit-region mask for a scene: a centered disc or an off-center block."""
    h, w = shape
    if name == "scene-a":
        rows = np.arange(h)[:, None] - (h - 1) / 2
        cols = np.arange(w)[None, :] - (w - 1) / 2
        mask = rows**2 + cols**2 <= (0.3 * min(h, w)) ** 2
    elif name == "scene-b":
        mask = np.zeros((h, w), dtype=bool)
        mask[h // 4 : (3 * h) // 4, w // 8 : w // 2] = True
    else:
        raise ValidationError(f"unknown demo scene {name!r}")
    return mask
