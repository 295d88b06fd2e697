.PHONY: build test check bench bench-smoke bench-cert bench-robust bench-obs bench-parallel bench-serve bench-count bench-ladder fuzz-smoke certify-smoke metrics-smoke faults-smoke serve-smoke chaos-smoke count-smoke ladder-smoke perfbench-smoke fmt clean

build:
	dune build

test:
	dune runtest

# Tier-1 verification: build, unit/property tests, the differential
# fuzzing oracle (all five backends against the explicit enumerator),
# one end-to-end certified verdict, an instrumented profile run whose
# metrics snapshot must self-validate, and the parallel-engine
# no-regression gate (work stealing, warm sessions, portfolio).
check: build test fuzz-smoke certify-smoke metrics-smoke faults-smoke serve-smoke chaos-smoke count-smoke ladder-smoke bench-parallel perfbench-smoke

# Differential fuzzing subset for CI (< 10 s): 200 random cases, fixed
# seed, fails with a shrunk reproducer on any backend disagreement.
# Every 4th case also runs the certified SMT path and validates its
# proof/model certificate against the independent lib/cert checker.
fuzz-smoke:
	dune exec bin/fannet_cli.exe -- fuzz --cases 200 --seed 42 --quiet

# One certified tolerance bracket end-to-end on the fast pipeline
# (~1 min): solve with proof logging, re-check every DRUP proof and
# witness with lib/cert, and emit the textual proof artefacts. Exit 1
# means a counterexample was found and certified - also a pass for this
# target; only exit 2 (invalid certificate or usage error) fails it.
certify-smoke:
	dune exec bin/fannet_cli.exe -- certify --fast --bracket --max-delta 1 \
	  --proof certify_smoke.drup || [ $$? -eq 1 ]
	rm -f certify_smoke.drup certify_smoke.drup.cnf

# Fault-injection smoke (~seconds): the full resilience suite (budget
# exhaustion, cancellation, torn checkpoints, kill-and-resume, the
# FANNET_FAULTS matrix), then two CLI runs under injected faults and a
# tiny --timeout, asserting a typed exit 2 and a clean message - never
# a crash or an uncaught exception.
faults-smoke:
	dune exec test/test_resil.exe -- -q
	dune exec bin/fannet_cli.exe -- tolerance --timeout 0.05; [ $$? -eq 2 ]
	FANNET_FAULTS=backend.unknown dune exec bin/fannet_cli.exe -- tolerance; 	  [ $$? -eq 2 ]

# Instrumented profile on the fast pipeline (~seconds): runs with the
# observability registry enabled, prints the metrics table + span tree,
# and writes a JSON snapshot that the command itself re-parses and
# validates (exit 2 on a malformed snapshot).
metrics-smoke:
	dune exec bin/fannet_cli.exe -- profile --fast -o metrics_smoke.json
	rm -f metrics_smoke.json

# fannetd end-to-end smoke (~seconds): a scripted client session against
# an in-process daemon on an ephemeral TCP port — ping, model upload,
# cold query, bit-identical cache hit, certified query re-checked by the
# independent lib/cert checker, one malformed-JSON frame (typed error,
# connection survives), one garbage-framed connection (typed error,
# closed), a raw HTTP GET /metrics scrape, the stats accounting
# identity, and a clean client-initiated shutdown. Exit 2 on any
# mismatch.
serve-smoke:
	dune exec bin/fannet_cli.exe -- serve --self-test

# Crash-isolation smoke (~10 s): a supervised fannetd (2 worker
# processes) under an armed kill schedule — 16 concurrent clients, every
# 7th query receipt _exits the worker mid-flight. Asserts the accounting
# identity, at least one observed death and restart, no untyped client
# failure, and that a daemon restarted on the same journal serves every
# journaled answer bit-identically from the recovered cache (certified
# answers re-checked by lib/cert). Exit 2 on any violation.
chaos-smoke:
	dune exec bin/fannet_cli.exe -- serve --chaos-test

# Model-counting smoke (~15 s): exact counts against brute-force
# enumeration, fannet-count-cert/1 certificates re-checked by the
# independent validator, jobs=1 vs jobs=4 byte-identity (certificate
# included), the (ε, δ) envelope over 20 seeds, daemon cold-vs-cached
# byte-identity for a certified count, and checkpoint
# exhaust-and-resume. Exit 2 on any mismatch.
count-smoke:
	dune exec bin/fannet_cli.exe -- count --self-test
	@echo "count-smoke: checking (eps, delta) usage-error rejection paths"
	@dune exec bin/fannet_cli.exe -- count --approx --epsilon 0 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --epsilon 0 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --epsilon -0.5 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --epsilon -0.5 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --approx-delta 0 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --approx-delta 0 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --approx-delta 1.5 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --approx-delta 1.5 exited $$st, want usage error 2"; exit 1; }

# E22 scaling-ladder smoke (< 15 s): the asserted subset of the deep &
# binarized ladder — gene-panel rungs cross-checked against the explicit
# enumerator (verdicts, flip counts and a lib/cert-validated certified
# verdict, sign comparators included), the 64-input 3-layer relu rung
# where pure interval bounds return Unknown but symbolic-bounds Bnb
# decides, and the deep binarized rung whose revalidated counterexample
# Bnb must find. Emits BENCH_ladder.json; exit 2 on any violated
# assertion.
ladder-smoke:
	dune exec bench/main.exe -- --ladder --smoke

# Repository-benchmark smoke (~35 s): each perfbench workload for 2 s
# untraced, then certify-cold traced so its layer-coverage gate runs and
# serve-hot traced so its in-process Protocol/Json replay and its hit
# ratio gate run.
# Fails unless every result line reports "correct": true and "failed": 0.
PERFBENCH_OK = python3 -c 'import json, sys; r = json.loads(sys.stdin.read().splitlines()[-1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'

perfbench-smoke:
	@for run in paper-batch:0 certify-cold:0 serve-hot:0 serve-churn:0 certify-cold:1 serve-hot:1; do \
	  w=$${run%:*}; tr=$${run#*:}; \
	  echo "perfbench-smoke: $$w --trace $$tr"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace $$tr) \
	    || { echo "FAIL: perfbench $$w --trace $$tr did not finish"; exit 1; }; \
	  printf '%s\n' "$$out" | $(PERFBENCH_OK) \
	    || { echo "FAIL: perfbench $$w --trace $$tr is not correct or has failures"; exit 1; }; \
	done

# Full evaluation suite (E1-E17 + Bechamel timings); takes minutes.
bench:
	dune exec bench/main.exe

# Parallel-engine, certificate and observability subsets on the
# small-dataset pipeline (< 1 min). Emits BENCH_parallel.json,
# BENCH_cert.json and BENCH_obs.json and fails unless the artefacts
# re-parse and all cross-checks (including the <2% disabled-overhead
# contract) agree.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Certificate section only (proof-logging overhead, checker throughput,
# end-to-end certified verdict); emits BENCH_cert.json.
bench-cert:
	dune exec bench/main.exe -- --cert

# Resilience section only (E18: budget-check overhead vs the <2%
# contract, checkpoint write cost); emits BENCH_robust.json.
bench-robust:
	dune exec bench/main.exe -- --robust

# Observability section only (E17: disabled fast-path contract, enabled
# overhead); emits BENCH_obs.json.
bench-obs:
	dune exec bench/main.exe -- --obs

# Parallel-engine gate (E15 + E19, smoke-sized, < 10 s): jobs=1 vs
# jobs=N verdict equality, work-stealing effort accounting, warm-pool
# reuse (0 re-encodes on a repeat search) and a portfolio race whose
# winning certificate must pass the independent RUP checker. Asserts
# no-regression everywhere and speedup > 1 only on multi-core, full
# runs — deliberately non-flaky, so `make check` includes it.
bench-parallel:
	dune exec bench/main.exe -- --parallel

# Serving section (E20, < 1 min): an in-process fannetd driven by
# concurrent clients — qps, p50/p99 latency, cache hit rate and the
# cold / warm-session / cache-hit contrast (with bit-identical certified
# verdicts on cache hits). Emits BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- --serve

# Counting section (E21, < 1 min): exact #SAT throughput (plain vs
# certified), tight-ε approx short-circuit agreement, and the (ε, δ)
# grid's cost/accuracy on a synthetic XOR-hash workload — the envelope
# is asserted, not just reported. Emits BENCH_count.json.
bench-count:
	dune exec bench/main.exe -- --count

# Scaling-ladder section (E22, ~1 min): {6, 64, 784} inputs x {2, 3, 4}
# layers x {relu-quantized, binarized} at noise deltas 1-2 — interval vs
# budgeted symbolic-bounds Bnb verdicts, explicit/count/certificate
# cross-checks on the small rungs, and the asserted precision gap.
# Emits BENCH_ladder.json.
bench-ladder:
	dune exec bench/main.exe -- --ladder

fmt:
	dune fmt

# BENCH_parallel/obs/robust/serve/count/ladder.json are tracked
# artefacts (regenerated by their bench targets), so clean leaves them
# alone.
clean:
	dune clean
	rm -f BENCH_cert.json
	rm -f certify_smoke.drup certify_smoke.drup.cnf metrics_smoke.json
