"""The benchmark's workloads: which methods run on which pair, and how.

``path="run"`` executes what ``repro run --dataset D --method M`` does:
an observability session that writes a run record, with the fused
kernels active in exact mode.  ``path="table"`` executes what ``repro
table`` does for one dataset: ``run_suite`` over the methods, with no
session and the composed (unfused) ops.

At the program's default epoch counts one operation takes 50 to 150 s on
a 2-core host, longer than one timed run may last, so each workload
shortens the epoch counts of the methods it trains, through the
factories ``make_method`` calls.  Data, shapes, batch sizes and code
paths stay the defaults.  Alg. 2 keeps at least two epochs, so an
epoch's opening re-encode still repeats the previous epoch's validation
encode, the waste ``core.encode_redundant_calls`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    dataset: str
    methods: Tuple[str, ...]
    path: str  # "run" or "table"
    # Per method, the SDEAConfig epoch fields it trains with.
    epochs: Dict[str, Dict[str, int]] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    "sdea-srprs": Workload(
        "srprs/dbp_yg", ("sdea",), "run",
        {"sdea": {"mlm_epochs": 1, "attr_epochs": 3, "rel_epochs": 5}}),
    "sdea-openea": Workload(
        "openea/d_w_15k_v1", ("sdea",), "run",
        {"sdea": {"mlm_epochs": 1, "attr_epochs": 3, "rel_epochs": 5}}),
    "competitors": Workload(
        "srprs/dbp_yg", ("gcn-align", "cea", "bert-int"), "table",
        {"bert-int": {"mlm_epochs": 1, "attr_epochs": 3}}),
}

# The loss trajectories each method's fit returns, in training order.
LOSS_PHASES = {"sdea": ("mlm", "attr", "rel"), "bert-int": ("mlm", "attr")}


def apply_schedule(workload: Workload) -> None:
    """Make ``make_method`` build the workload's methods at its epochs."""
    from repro.baselines import registry
    from repro.baselines.bert_int import BertInt, BertIntConfig
    from repro.experiments import methods

    def sdea():
        return methods.SDEAAligner(
            methods.default_sdea_config(**workload.epochs["sdea"]))

    def bert_int():
        config = BertIntConfig()
        for key, value in workload.epochs["bert-int"].items():
            setattr(config.sdea, key, value)
        return BertInt(config)

    if "sdea" in workload.epochs:
        methods._EXTRA_FACTORIES["sdea"] = sdea
    if "bert-int" in workload.epochs:
        registry._FACTORIES["bert-int"] = bert_int


def run_workload(workload: Workload, pair, split, runs_dir) -> list:
    """Every operation of the workload, through the program's entry point."""
    from repro import obs
    from repro.experiments import run_experiment, run_suite
    from repro.nn.kernels import use_kernels

    if workload.path == "table":
        return run_suite(list(workload.methods), pair, split)
    results = []
    for method in workload.methods:
        with obs.session(runs_dir=str(runs_dir)), use_kernels():
            results.append(run_experiment(method, pair, split))
    return results
