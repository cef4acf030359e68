"""Dataset registry: name → builder, covering every benchmark in Table I."""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import UnknownNameError
from ..kg.pair import KGPair
from .dbp15k import DBP15K_LANGS, build_dbp15k
from .openea import OPENEA_DATASETS, build_openea
from .srprs import SRPRS_DATASETS, build_srprs

Builder = Callable[..., KGPair]

_REGISTRY: Dict[str, Builder] = {}


def _register() -> None:
    for lang in DBP15K_LANGS:
        _REGISTRY[f"dbp15k/{lang}"] = (
            lambda lang=lang, **kw: build_dbp15k(lang, **kw)
        )
    for name in SRPRS_DATASETS:
        _REGISTRY[f"srprs/{name}"] = (
            lambda name=name, **kw: build_srprs(name, **kw)
        )
    for name in OPENEA_DATASETS:
        _REGISTRY[f"openea/{name}"] = (
            lambda name=name, **kw: build_openea(name, **kw)
        )


_register()


def available_datasets() -> List[str]:
    """All registered dataset names."""
    return sorted(_REGISTRY)


def build_dataset(name: str, **kwargs) -> KGPair:
    """Build a dataset by registry name, e.g. ``dbp15k/zh_en``."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownNameError("dataset", name, available_datasets()) from None
    return builder(**kwargs)
