"""Hot-path micro-benchmarks seeding the perf trajectory.

Times the five op mixes that dominate SDEA wall time — dense matmul,
softmax, one multi-head-attention step (BERT encoder), one BiGRU step
(relation module), and candidate-ranking cosine top-k (Algorithm 3) —
and writes ``BENCH_hotpath.json`` at the repo root so later perf PRs
have a quantitative baseline to beat (``make bench-hot``).

FLOP counts come from each op's formula in the registry
(:mod:`repro.nn.ops`): tensor-op workloads are measured by
running one repetition under the op profiler
(:class:`repro.obs.profile.OpProfiler`) and reading its estimate; the
raw-numpy cosine top-k workload (no autograd ops) applies the same
matmul formula directly.  Timing then happens *without* the profiler
installed (best-of-N over untouched code paths), so GFLOP/s divides an
analytic count by a clean wall time.

Usage::

    python benchmarks/bench_hotpath.py                 # full run, writes JSON
    python benchmarks/bench_hotpath.py --smoke         # 1 rep, no JSON (CI)
    python benchmarks/bench_hotpath.py --out other.json --repeat 9
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.align.similarity import (  # noqa: E402
    chunked_cosine_topk,
    cosine_similarity_matrix,
    topk_indices,
)
from repro.analysis.ir import capture_step, replay  # noqa: E402
from repro.nn.ops import flops_for  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.nn.attention import MultiHeadSelfAttention, TokenLayout  # noqa: E402
from repro.nn.layers import MLP  # noqa: E402
from repro.nn.kernels import use_kernels  # noqa: E402
from repro.nn.rnn import BiGRU  # noqa: E402
from repro.nn.tensor import Tensor  # noqa: E402
from repro.obs.profile import OpProfiler  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_hotpath.json"
SCHEMA_VERSION = 1


class Bench:
    """One micro-benchmark: a closure plus a FLOP estimate strategy."""

    def __init__(self, name: str, describe: str, make: Callable[[], Callable],
                 analytic_flops: Optional[int] = None,
                 flops_from: Optional[str] = None):
        self.name = name
        self.describe = describe
        self.make = make  # returns the zero-arg workload closure
        self.analytic_flops = analytic_flops  # None => profile one rep
        # Reuse another bench's FLOP estimate (fused variants: same
        # mathematical workload, different execution — dividing by the
        # *reference* count keeps GFLOP/s ratios honest).
        self.flops_from = flops_from


def _rng() -> np.random.Generator:
    return np.random.default_rng(7)


def bench_matmul() -> Bench:
    m, k, n = 256, 256, 256

    def make():
        rng = _rng()
        a = Tensor(rng.normal(size=(m, k)))
        b = Tensor(rng.normal(size=(k, n)))
        return lambda: a @ b

    return Bench("matmul", f"({m},{k}) @ ({k},{n})", make)


def bench_softmax() -> Bench:
    # Forward + backward: the training hot path, where per-op dispatch
    # and temporary allocation dominate (attention rows at BERT scale).
    rows, cols = 512, 512

    def make():
        x = Tensor(_rng().normal(size=(rows, cols)), requires_grad=True)
        seed = np.ones((rows, cols))

        def run():
            x.grad = None
            F.softmax(x, axis=-1).backward(seed)

        return run

    return Bench("softmax", f"softmax fwd+bwd over ({rows},{cols})", make)


def bench_attention() -> Bench:
    batch, steps, dim, heads = 8, 32, 64, 4

    def make():
        rng = _rng()
        mha = MultiHeadSelfAttention(dim, heads, rng)
        x = Tensor(rng.normal(size=(batch * steps, dim)))
        layout = TokenLayout.dense(batch, steps)
        return lambda: mha(x, layout)

    return Bench("mha_step",
                 f"multi-head self-attention B={batch} T={steps} "
                 f"D={dim} H={heads}", make)


def bench_bigru() -> Bench:
    # Forward + backward-through-time: the relation module's neighbour
    # recurrence as trained, ~30 autograd nodes per step composed.
    batch, steps, dim, hidden = 8, 16, 32, 32

    def make():
        rng = _rng()
        gru = BiGRU(dim, hidden, rng)
        x = Tensor(rng.normal(size=(batch, steps, dim)), requires_grad=True)
        seed = np.ones((batch, steps, hidden))

        def run():
            x.grad = None
            gru(x).backward(seed)

        return run

    return Bench("bigru_step",
                 f"BiGRU fwd+bwd B={batch} T={steps} in={dim} "
                 f"hidden={hidden}", make)


def bench_cosine_topk() -> Bench:
    n1, n2, dim, k = 1000, 1000, 64, 10
    # Raw-numpy path (no autograd ops): apply the shared FLOP model
    # directly — the similarity matrix is one (n1,d)@(d,n2) matmul plus
    # two normalisations.
    flops = (flops_for("matmul", [(n1, dim), (dim, n2)], (n1, n2))
             + 2 * flops_for("mul", [(n1, dim)], (n1, dim))
             + 2 * flops_for("mul", [(n2, dim)], (n2, dim)))

    def make():
        rng = _rng()
        a = rng.normal(size=(n1, dim))
        b = rng.normal(size=(n2, dim))

        def run():
            similarity = cosine_similarity_matrix(a, b)
            return topk_indices(similarity, k)

        return run

    return Bench("cosine_topk",
                 f"candidate ranking: cosine ({n1},{dim})x({n2},{dim}) "
                 f"top-{k}", make, analytic_flops=flops)


def bench_softmax_fused() -> Bench:
    rows, cols = 512, 512

    def make():
        x = Tensor(_rng().normal(size=(rows, cols)), requires_grad=True)
        seed = np.ones((rows, cols))

        def run():
            x.grad = None
            with use_kernels():
                F.softmax(x, axis=-1).backward(seed)

        return run

    return Bench("softmax_fused",
                 f"fused softmax fwd+bwd over ({rows},{cols})", make,
                 flops_from="softmax")


def bench_attention_fused() -> Bench:
    batch, steps, dim, heads = 8, 32, 64, 4

    def make():
        rng = _rng()
        mha = MultiHeadSelfAttention(dim, heads, rng)
        x = Tensor(rng.normal(size=(batch * steps, dim)))
        layout = TokenLayout.dense(batch, steps)

        def run():
            with use_kernels():
                return mha(x, layout)

        return run

    return Bench("mha_step_fused",
                 f"fused multi-head self-attention B={batch} T={steps} "
                 f"D={dim} H={heads}", make, flops_from="mha_step")


def bench_bigru_fused() -> Bench:
    batch, steps, dim, hidden = 8, 16, 32, 32

    def make():
        rng = _rng()
        gru = BiGRU(dim, hidden, rng)
        x = Tensor(rng.normal(size=(batch, steps, dim)), requires_grad=True)
        seed = np.ones((batch, steps, hidden))

        def run():
            x.grad = None
            with use_kernels():
                gru(x).backward(seed)

        return run

    return Bench("bigru_step_fused",
                 f"fused BiGRU fwd+bwd B={batch} T={steps} in={dim} "
                 f"hidden={hidden}", make, flops_from="bigru_step")


def bench_ir_replay() -> Bench:
    # Verified replay of a captured fwd+bwd step (repro.analysis.ir):
    # measures the interpreter overhead of re-executing the IR with
    # bit-for-bit checking against the recorded values.  FLOPs are the
    # eager step's profiled count — the replay re-runs the same math.
    batch, dim, hidden, classes = 64, 32, 64, 16

    def build_step():
        rng = _rng()
        mlp = MLP(dim, [hidden], classes, rng)
        x = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)

        def step():
            x.grad = None
            logits = mlp(x)
            F.softmax(logits, axis=-1).log().mean().backward()

        return step

    def make():
        step = build_step()
        capture = capture_step(lambda: (step(), step()), label="mlp")

        def run():
            result = replay(capture)
            if not result.ok:
                raise RuntimeError(f"replay diverged: {result.summary()}")

        return run

    # The capture windows down to one clean step, so the replay does one
    # step's worth of math.
    flops = _profiled_flops(build_step())
    return Bench("ir_replay",
                 f"verified IR replay: MLP {dim}->{hidden}->{classes} "
                 f"fwd+bwd B={batch}", make, analytic_flops=flops)


def bench_cosine_topk_chunked() -> Bench:
    n1, n2, dim, k = 1000, 1000, 64, 10
    flops = (flops_for("matmul", [(n1, dim), (dim, n2)], (n1, n2))
             + 2 * flops_for("mul", [(n1, dim)], (n1, dim))
             + 2 * flops_for("mul", [(n2, dim)], (n2, dim)))

    def make():
        rng = _rng()
        a = rng.normal(size=(n1, dim))
        b = rng.normal(size=(n2, dim))
        # ~4 row blocks at this size: exercises the chunk loop while
        # keeping the matmuls large enough for honest BLAS throughput.
        budget = (n1 // 4) * n2 * 8
        return lambda: chunked_cosine_topk(a, b, k,
                                           memory_budget_bytes=budget)

    return Bench("cosine_topk_chunked",
                 f"chunked candidate ranking: cosine ({n1},{dim})x"
                 f"({n2},{dim}) top-{k}, 4 row blocks", make,
                 analytic_flops=flops)


# Ordering matters: reference benches run first, in the interpreter's
# default allocator regime (same conditions as the committed baseline
# and as a composed fit outside ``run_experiment``).  The first fused
# bench to enter ``use_kernels`` applies the kernel layer's
# process-wide allocator tuning (see repro.nn.kernels.alloc), so fused
# rows measure the full shipped configuration: fused nodes + recycled
# hot-loop buffers.
ALL_BENCHES: List[Callable[[], Bench]] = [
    bench_matmul, bench_softmax, bench_attention, bench_bigru,
    bench_cosine_topk, bench_cosine_topk_chunked, bench_ir_replay,
    bench_softmax_fused, bench_attention_fused, bench_bigru_fused,
]


def _profiled_flops(run: Callable) -> int:
    profiler = OpProfiler()
    profiler.install()
    try:
        run()
    finally:
        profiler.uninstall()
    return profiler.total_flops()


def run_bench(bench: Bench, repeat: int,
              flops_by_name: Optional[Dict[str, int]] = None
              ) -> Dict[str, object]:
    run = bench.make()
    if bench.flops_from is not None:
        if not flops_by_name or bench.flops_from not in flops_by_name:
            raise KeyError(
                f"bench {bench.name!r} reuses FLOPs of "
                f"{bench.flops_from!r}, which has not run yet")
        flops = flops_by_name[bench.flops_from]
    elif bench.analytic_flops is not None:
        flops = int(bench.analytic_flops)
    else:
        flops = _profiled_flops(bench.make())  # fresh closure: clean timing
    run()  # warm numpy caches / allocator
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    best = min(times)
    median = sorted(times)[len(times) // 2]
    return {
        "workload": bench.describe,
        "repeats": repeat,
        "best_seconds": round(best, 6),
        "median_seconds": round(median, 6),
        "flops_estimate": flops,
        "gflops_per_sec": round(flops / best / 1e9, 4) if best > 0 else None,
    }


def run_all(repeat: int) -> Dict[str, object]:
    results = {}
    flops_by_name: Dict[str, int] = {}
    for factory in ALL_BENCHES:
        bench = factory()
        results[bench.name] = run_bench(bench, repeat, flops_by_name)
        row = results[bench.name]
        flops_by_name[bench.name] = int(row["flops_estimate"])
        print(f"{bench.name:<20} best={row['best_seconds'] * 1e3:8.3f}ms  "
              f"flops={row['flops_estimate']:>12}  "
              f"gflops/s={row['gflops_per_sec']}")
    return {
        "schema_version": SCHEMA_VERSION,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "benchmarks": results,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9,
                        help="timed repetitions per bench (best-of)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="result JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: 1 repetition, never writes JSON")
    args = parser.parse_args(argv)
    repeat = 1 if args.smoke else max(1, args.repeat)
    payload = run_all(repeat)
    if args.smoke:
        print("(smoke run: JSON not written)")
        return 0
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
