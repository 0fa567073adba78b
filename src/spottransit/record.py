"""Dict serialization shared by the result records."""

from __future__ import annotations

import dataclasses

import numpy as np


class Record:
    """Mixin for result dataclasses: ``to_dict`` maps each field, in field
    order, to its value, with numpy arrays as (nested) lists of floats."""

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in dataclasses.asdict(self).items()}
