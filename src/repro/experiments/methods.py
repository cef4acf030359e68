"""Unified method factory: baselines + SDEA behind the Aligner interface."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines.base import Aligner
from ..baselines.registry import _FACTORIES as _BASELINE_FACTORIES
from ..core.config import SDEAConfig
from ..core.model import SDEA
from ..errors import UnknownNameError
from ..kg.pair import AlignmentSplit, KGPair


class SDEAAligner(Aligner):
    """Adapter exposing :class:`repro.core.SDEA` as an Aligner."""

    name = "sdea"

    def __init__(self, config: Optional[SDEAConfig] = None):
        self.model = SDEA(config)

    def fit(self, pair: KGPair, split: Optional[AlignmentSplit] = None) -> None:
        self.model.fit(pair, split or pair.split())

    def embeddings(self, side: int) -> np.ndarray:
        return self.model.embeddings(side)


class SDEAWithoutRelation(SDEAAligner):
    """Ablation "SDEA w/o rel.": attribute embeddings only (H_ent = H_a)."""

    name = "sdea-norel"

    def __init__(self, config: Optional[SDEAConfig] = None):
        config = config or SDEAConfig()
        config.use_relation = False
        super().__init__(config)


def default_sdea_config(**overrides) -> SDEAConfig:
    """The SDEA configuration used by the benchmark harness."""
    config = SDEAConfig()
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise AttributeError(f"SDEAConfig has no field {key!r}")
        setattr(config, key, value)
    return config


_EXTRA_FACTORIES: Dict[str, Callable[[], Aligner]] = {
    "sdea": SDEAAligner,
    "sdea-norel": SDEAWithoutRelation,
}


def available_methods() -> List[str]:
    """All method names usable by the experiment runner."""
    return sorted({**_BASELINE_FACTORIES, **_EXTRA_FACTORIES})


def make_method(name: str) -> Aligner:
    """Instantiate a method (baseline or SDEA variant) by name."""
    if name in _EXTRA_FACTORIES:
        return _EXTRA_FACTORIES[name]()
    if name in _BASELINE_FACTORIES:
        return _BASELINE_FACTORIES[name]()
    raise UnknownNameError("method", name, available_methods())
