"""In-memory span tracing of the program's layers, installed from outside.

The benchmark does not edit the program.  It wraps the public functions
and methods named in :data:`TARGETS` where their callers look them up: a
module-level function is replaced in every loaded ``repro`` module that
holds a reference to it (``repro.core.trainer.encode_all`` as well as
``repro.core.attribute_module.encode_all``), a method is replaced on the
class that defines it.

Each call records one span ``[name, start, end, parent]``.  A span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over its spans.  The layer is the span name's prefix
before the first dot.

:class:`Capture` is the light form every untraced run uses: it records
the loss trajectories the training phases return and counts optimizer
steps, one counter increment per step, and opens no spans.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

# (where the object is defined, span name).  NeighborIndex lives in
# repro.core but indexes the KG structure, so it is attributed to ``kg``.
TARGETS = (
    ("repro.datasets.registry:build_dataset", "datasets.build_dataset"),
    ("repro.kg.sequences:build_sequences", "kg.build_sequences"),
    ("repro.core.relation_module:NeighborIndex.__init__", "kg.NeighborIndex"),
    ("repro.text.tokenizer:WordPieceTokenizer.train", "text.tokenizer_train"),
    ("repro.text.lsa:corpus_stats", "text.corpus_stats"),
    ("repro.text.pretrain:pretrain_mlm", "text.pretrain_mlm"),
    ("repro.core.model:SDEA.fit", "core.SDEA.fit"),
    ("repro.core.attribute_module:prepare_text_encoder",
     "core.prepare_text_encoder"),
    ("repro.core.trainer:pretrain_attribute_module",
     "core.pretrain_attribute_module"),
    ("repro.core.attribute_module:encode_all", "core.encode_all"),
    ("repro.core.candidates:gen_candidates", "core.gen_candidates"),
    ("repro.core.trainer:train_relation_model", "core.train_relation_model"),
    ("repro.core.trainer:RelationModel.embed_all", "core.embed_all"),
    ("repro.nn.tensor:Tensor.backward", "nn.backward"),
    ("repro.nn.optim:Adam.step", "nn.optim_step"),
    ("repro.nn.optim:SGD.step", "nn.optim_step"),
    ("repro.nn.optim:clip_grad_norm", "nn.clip_grad_norm"),
    ("repro.align.evaluator:evaluate_embeddings", "align.evaluate_embeddings"),
    ("repro.align.similarity:chunked_cosine_topk", "align.chunked_cosine_topk"),
    ("repro.baselines.base:Aligner.evaluate", "baselines.Aligner.evaluate"),
    ("repro.baselines.gcn:GCNAlign.fit", "baselines.GCNAlign.fit"),
    ("repro.baselines.cea:CEA.fit", "baselines.CEA.fit"),
    ("repro.baselines.cea:CEA.evaluate", "baselines.CEA.evaluate"),
    ("repro.baselines.cea:levenshtein_similarity_matrix",
     "baselines.levenshtein_similarity_matrix"),
    ("repro.baselines.bert_int:BertInt.fit", "baselines.BertInt.fit"),
    ("repro.baselines.bert_int:BertInt.evaluate", "baselines.BertInt.evaluate"),
    ("repro.baselines.bert_int:BertInt.interaction_similarity",
     "baselines.BertInt.interaction_similarity"),
    ("repro.obs.runrecord:write_record", "obs.write_record"),
)

# The training phases whose returned loss trajectories every run keeps.
LOSS_PHASES = {
    "text.pretrain_mlm": "mlm",
    "core.pretrain_attribute_module": "attr",
    "core.train_relation_model": "rel",
}
OPTIM_STEP = "nn.optim_step"

ROOT = "root"
PARAM_HASH = "bench.param_hash"
ATTR = "core.pretrain_attribute_module"
ENCODE = "core.encode_all"


def _install(path: str, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace the object at ``module:Qual.name`` with a wrapper of it."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        return
    raw = getattr(owner, attr)
    wrapper = make_wrapper(raw)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapper)


def _losses_of(name: str, result) -> List[float]:
    if name == "text.pretrain_mlm":
        return [float(x) for x in result]
    log = result[-1]  # (h1, h2, TrainLog) or (RelationModel, TrainLog)
    return [float(x) for x in log.losses]


class Capture:
    """Loss trajectories and optimizer-step counts, without spans."""

    def __init__(self) -> None:
        self.losses: List[List[object]] = []  # [phase, [loss, ...]]
        self.steps = 0

    def install(self) -> None:
        for path, name in TARGETS:
            if name in LOSS_PHASES:
                _install(path, lambda fn, name=name: self._keep_losses(name, fn))
            elif name == OPTIM_STEP:
                _install(path, self._count_steps)

    def _keep_losses(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.losses.append([LOSS_PHASES[name], _losses_of(name, result)])
            return result
        return wrapper

    def _count_steps(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.steps += 1
            return fn(*args, **kwargs)
        return wrapper


class Tracer(Capture):
    """Spans at every target, plus the values the per-layer metrics need."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._stack: List[int] = []
        # Per encode_all span: rows encoded, and whether the module's
        # parameters equal those of the previous call on the same encoder.
        self.encode_rows: Dict[int, int] = {}
        self.encode_redundant: Dict[int, bool] = {}
        self._last_hash: Dict[int, str] = {}
        # Alg.-2 candidate sets as (Alg.-2 span index, candidates), and
        # each Alg.-2 run's train links.
        self.candidates: List[tuple] = []
        self.train_links: Dict[int, list] = {}
        self.record_bytes = 0

    def install(self) -> None:
        for path, name in TARGETS:
            _install(path, lambda fn, name=name: self._spanned(name, fn))

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            redundant = False
            if name == ENCODE:
                redundant = self._same_params(args[0], args[1])
            parent = self._stack[-1] if self._stack else -1
            index = self.open(name)
            if name == ATTR:
                self.train_links[index] = list(args[3])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if name == OPTIM_STEP:
                self.steps += 1
            elif name == ENCODE:
                self.encode_rows[index] = len(args[1])
                self.encode_redundant[index] = redundant
            elif name == "core.gen_candidates" and parent >= 0 \
                    and self.spans[parent][0] == ATTR:
                self.candidates.append((parent, result))
            elif name == "obs.write_record":
                self.record_bytes += result.stat().st_size
            elif name in LOSS_PHASES:
                self.losses.append([LOSS_PHASES[name],
                                    _losses_of(name, result)])
            return result
        return wrapper

    def _same_params(self, module, encoder) -> bool:
        """Hash the module's parameters (in a span of the ``bench``
        layer) and compare with the last encode of the same encoder."""
        index = self.open(PARAM_HASH)
        digest = hashlib.sha256()
        for param in module.parameters():
            digest.update(param.data.tobytes())
        value = digest.hexdigest()
        same = self._last_hash.get(id(encoder)) == value
        self._last_hash[id(encoder)] = value
        self.close(index)
        return same

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def durations(self) -> List[float]:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> List[float]:
        own = self.durations()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root: int) -> List[int]:
        """``root`` and its descendants; a child always follows its parent."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in inside:
                inside.add(index)
        return sorted(inside)

    def _under(self, index: int, name: Optional[str]) -> bool:
        if name is None:
            return True
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str, under: Optional[str] = None) -> List[int]:
        """Indices of the spans called ``name`` (below a ``under`` span)."""
        return [i for i, span in enumerate(self.spans)
                if span[0] == name and self._under(i, under)]

    def total(self, name: str, under: Optional[str] = None) -> float:
        durations = self.durations()
        return sum(durations[i] for i in self.select(name, under))

    def count(self, name: str, under: Optional[str] = None) -> int:
        return len(self.select(name, under))

    def layer_table(self, root: int) -> Dict[str, List[float]]:
        """layer -> [self seconds, calls] over ``root``'s subtree; the root
        span's own self time is the ``unattributed`` row."""
        own = self.self_times()
        table: Dict[str, List[float]] = {}
        for index in self.subtree(root):
            layer = ("unattributed" if index == root
                     else self.spans[index][0].split(".")[0])
            row = table.setdefault(layer, [0.0, 0])
            row[0] += own[index]
            row[1] += 1
        return table

    def after_epochs(self) -> Dict[str, float]:
        """Per span name, the time each Alg.-2 run spends directly in its
        last two encode_all calls and their parameter hashes: the final
        encode after ``checkpoint.restore()``, outside any epoch."""
        durations = self.durations()
        out = {ENCODE: 0.0, PARAM_HASH: 0.0}
        for attr in self.select(ATTR):
            for name in out:
                calls = [i for i in self.subtree(attr)
                         if self.spans[i][0] == name
                         and self.spans[i][3] == attr]
                out[name] += sum(durations[i] for i in calls[-2:])
        return out

    def recall_series(self) -> List[float]:
        """Per epoch of the last Alg.-2 run, the share of its train
        sources whose gold target is in the candidate set."""
        from repro.core.candidates import candidate_recall
        if not self.candidates:
            return []
        last = self.candidates[-1][0]
        links = self.train_links[last]
        return [candidate_recall(cands, links)
                for parent, cands in self.candidates if parent == last]
