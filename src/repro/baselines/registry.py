"""Baseline registry: method name → factory (Table II's families)."""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import UnknownNameError
from .base import Aligner
from .bert_int import BertInt
from .bootea import BootEA
from .cea import CEA
from .gat import GATAlign
from .gcn import GCN, GCNAlign
from .hman import HMAN
from .jape import JAPE
from .kecg import KECG
from .rdgcn import HGCN, RDGCN
from .rsn import RSNLite
from .transe import JAPEStru, MTransE
from .transe_variants import IPTransE, NAEA, TransEdge

_FACTORIES: Dict[str, Callable[[], Aligner]] = {
    "mtranse": MTransE,
    "jape-stru": JAPEStru,
    "jape": JAPE,
    "naea": NAEA,
    "bootea": BootEA,
    "transedge": TransEdge,
    "iptranse": IPTransE,
    "rsn-lite": RSNLite,
    "gcn": GCN,
    "gcn-align": GCNAlign,
    "gat-align": GATAlign,
    "kecg": KECG,
    "hman": HMAN,
    "rdgcn": RDGCN,
    "hgcn": HGCN,
    "cea": CEA,
    "bert-int": BertInt,
}


def available_baselines() -> List[str]:
    """All registered baseline names."""
    return sorted(_FACTORIES)


def make_baseline(name: str) -> Aligner:
    """Instantiate a baseline with default configuration."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownNameError("baseline", name,
                               available_baselines()) from None
    return factory()
