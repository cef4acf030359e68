# Convenience targets for the SDEA reproduction.

.PHONY: install test lint check bench bench-hot bench-hot-smoke \
	bench-compare-smoke report obs-demo obs-check ir-check e2e-smoke \
	profile-demo clean

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

# Repo-specific autograd-aware lint (see docs/static_analysis.md).
lint:
	PYTHONPATH=src python -m repro.cli lint src tests

# The full gate: lint clean, hot-path bench smoke, committed bench
# baseline structurally valid, telemetry pipeline end-to-end, IR
# capture/replay and shape contracts verified, e2e benchmark smoke, tests.
check: lint bench-hot-smoke bench-compare-smoke obs-check ir-check e2e-smoke test
	@echo "check: OK - all gates green (lint, bench, obs, ir, e2e, tests)"

# Tiny instrumented run: prints the span report and writes a run record
# under runs/ (inspect it with `python -m repro.cli obs`).
obs-demo:
	PYTHONPATH=src python -m repro.cli run --dataset srprs/dbp_yg \
		--method jape-stru --trace
	PYTHONPATH=src python -m repro.cli obs --no-metrics

# Telemetry pipeline end-to-end: two tiny seeded runs with health rules
# armed, then assert bitwise-equal metrics, one stream per record under
# the record's stem and zero health alerts (part of `make check`).
obs-check:
	python benchmarks/obs_check.py

# Training-step IR pipeline end-to-end: capture every training phase of
# two gate-clean baselines (zero gating G-findings) and of SDEA (three
# phases, zero error findings, so no broken @shape_spec contract) on the
# composed ops, and SDEA's three phases again under use_kernels();
# assert a consistent liveness plan (planned <= eager <= measured peak)
# and a bit-for-bit replay against eager with no opaque op (part of
# `make check`).
ir-check:
	python benchmarks/ir_check.py

# One traced sdea-srprs and one traced competitors repetition of the
# end-to-end benchmark (e2ebench/): correct, no failed check, no
# DISAGREE, and the tracer saw tokenizer training, MLM, Alg.-2 encodes
# and steps, plus CEA's Levenshtein matrix on competitors (~27 s; part
# of `make check`).
e2e-smoke:
	python benchmarks/e2e_smoke.py

bench:
	pytest benchmarks/ --benchmark-only

# Hot-path micro-benchmarks (matmul / softmax / attention / BiGRU /
# cosine top-k); writes BENCH_hotpath.json at the repo root.
bench-hot:
	python benchmarks/bench_hotpath.py

# One repetition, no JSON overwrite — wired into `make check` as a
# smoke run so the bench harness itself stays green.
bench-hot-smoke:
	python benchmarks/bench_hotpath.py --smoke

# Deterministic structural validation of the committed baseline (no
# timing) — part of `make check`.
bench-compare-smoke:
	python benchmarks/compare_hotpath.py --smoke

# Profile a tiny SDEA run: per-op report (fwd/bwd split, FLOPs) plus a
# Perfetto-loadable chrome trace under runs/.
profile-demo:
	PYTHONPATH=src python -m repro.cli profile --method sdea

report:
	python -m repro.cli report --results benchmarks/results --out EXPERIMENTS.md

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
