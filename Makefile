.PHONY: build test check bench bench-ladder fuzz-smoke certify-smoke metrics-smoke faults-smoke serve-smoke chaos-smoke count-smoke ladder-smoke perfbench-smoke fmt clean

build:
	dune build

test:
	dune runtest

# Tier-1 verification: build, unit/property tests, the differential
# fuzzing oracle (all five backends against the explicit enumerator),
# one end-to-end certified verdict, an instrumented profile run whose
# metrics snapshot must self-validate, the serving, crash-isolation,
# counting and scaling-ladder smokes, and the repository benchmark's
# smoke run.
check: build test fuzz-smoke certify-smoke metrics-smoke faults-smoke serve-smoke chaos-smoke count-smoke ladder-smoke perfbench-smoke

# Differential fuzzing subset for CI (< 10 s): 200 random cases, fixed
# seed, fails with a shrunk reproducer on any backend disagreement.
# Every 4th case also runs the certified SMT path and validates its
# proof/model certificate against the independent lib/cert checker.
fuzz-smoke:
	dune exec bin/fannet_cli.exe -- fuzz --cases 200 --seed 42 --quiet

# One certified tolerance bracket end-to-end on the fast pipeline
# (~30 s): solve with proof logging, re-check every DRUP proof and
# witness with lib/cert, and emit the textual proof artefacts. Exit 1
# means a counterexample was found and certified - also a pass for this
# target; only exit 2 (invalid certificate or usage error) fails it.
# The artefacts must be byte-identical to the pinned digests: a change
# that means to move the search or the encoding updates them and says so.
CERTIFY_SMOKE_DRUP_MD5 = 259ee99df902d2e0fb1fe7494e90e501
CERTIFY_SMOKE_CNF_MD5 = 492cc13f13f0277ebac34ee846dbb9cd
certify-smoke:
	dune exec bin/fannet_cli.exe -- certify --fast --bracket --max-delta 1 \
	  --proof certify_smoke.drup || [ $$? -eq 1 ]
	drup=$$(md5sum < certify_smoke.drup | cut -d' ' -f1); \
	  cnf=$$(md5sum < certify_smoke.drup.cnf | cut -d' ' -f1); \
	  rm -f certify_smoke.drup certify_smoke.drup.cnf; \
	  echo "certify-smoke md5: drup $$drup cnf $$cnf"; \
	  [ "$$drup" = $(CERTIFY_SMOKE_DRUP_MD5) ] && [ "$$cnf" = $(CERTIFY_SMOKE_CNF_MD5) ]

# Fault-injection smoke (~seconds): the full resilience suite (budget
# exhaustion, cancellation, torn checkpoints, kill-and-resume, the
# FANNET_FAULTS matrix), then CLI runs under injected faults and a tiny
# --timeout, asserting a typed exit 2 and a clean message - never a
# crash or an uncaught exception. A solver OOM stops even an unbudgeted
# sweep (no silent "0 misclassified"), and with no budget to double
# --retries must not re-run it. A --limit below 1 is a usage error, and
# the default bias corpus, cut at --limit 100 per input, says so on
# stderr. So are a --timeout that is not a finite number > 0, a
# --max-mem below 1, and a --checkpoint, --cert-out, --proof or --metrics
# whose directory is missing: each is refused before any analysis runs.
faults-smoke:
	dune exec test/test_resil.exe -- -q
	dune exec bin/fannet_cli.exe -- bias --limit 0 2>/dev/null; [ $$? -eq 2 ]
	out=$$(dune exec bin/fannet_cli.exe -- tolerance --timeout=-1 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--timeout'"
	out=$$(dune exec bin/fannet_cli.exe -- tolerance --timeout nan 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--timeout'"
	out=$$(dune exec bin/fannet_cli.exe -- count --max-mem=-5 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--max-mem'"
	out=$$(dune exec bin/fannet_cli.exe -- count --delta 1 --checkpoint /nonexistent/dir/x.ckpt 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--checkpoint'"
	out=$$(dune exec bin/fannet_cli.exe -- tolerance --checkpoint /nonexistent/dir/t.ckpt 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--checkpoint'"
	out=$$(dune exec bin/fannet_cli.exe -- count --delta 1 --cert-out /nonexistent/d/c.json 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--cert-out'"
	out=$$(dune exec bin/fannet_cli.exe -- certify --fast --bracket --max-delta 1 --proof /nonexistent/d/p.drup 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--proof'"
	out=$$(dune exec bin/fannet_cli.exe -- tolerance --metrics /nonexistent/d/m.json 2>&1); \
	  [ $$? -eq 2 ] && echo "$$out" | grep -q "option '--metrics'"
	dune exec bin/fannet_cli.exe -- bias 2>&1 >/dev/null | grep -q "corpus truncated at --limit 100"
	dune exec bin/fannet_cli.exe -- tolerance --timeout 0.001; [ $$? -eq 2 ]
	FANNET_FAULTS=backend.unknown dune exec bin/fannet_cli.exe -- tolerance; 	  [ $$? -eq 2 ]
	FANNET_FAULTS=sat.oom dune exec bin/fannet_cli.exe -- sweep --backend smt; 	  [ $$? -eq 2 ]
	FANNET_FAULTS=sat.oom dune exec bin/fannet_cli.exe -- sweep --backend smt \
	  --retries 3 2>faults_smoke.err; rc=$$?; ! grep -q retrying faults_smoke.err; \
	  ok=$$?; rm -f faults_smoke.err; [ $$rc -eq 2 ] && [ $$ok -eq 0 ]

# Instrumented profile on the fast pipeline (~seconds): runs with the
# observability registry enabled, prints the metrics table + span tree,
# and writes a JSON snapshot that the command itself re-parses and
# validates (exit 2 on a malformed snapshot).
metrics-smoke:
	dune exec bin/fannet_cli.exe -- profile --fast -o metrics_smoke.json
	rm -f metrics_smoke.json

# fannetd end-to-end smoke (~20 s): the serving suite against in-process
# daemons on ephemeral TCP ports — wire and protocol codecs, malformed
# input (typed errors, the daemon survives), every query kind cold,
# warm and from the cache (bit-identical, certificates and count
# certificates re-checked by the independent checkers, warm and cache
# hit both faster than cold), the HTTP
# GET /metrics scrape, the accounting identity, a client shutdown, a
# 16-client soak under faults and the verdict journal. Then the CLI must
# refuse a TCP port outside 0..65535 and a host that does not resolve
# with a usage error (exit 2), and an idle `fannet serve` must stop
# cleanly on SIGTERM.
serve-smoke:
	dune exec test/test_serve.exe -- -q
	timeout -k 5 60 dune exec bin/fannet_cli.exe -- serve --tcp 127.0.0.1:70000; [ $$? -eq 2 ]
	timeout -k 5 60 dune exec bin/fannet_cli.exe -- serve --tcp no-such-host.invalid:0; [ $$? -eq 2 ]
	dune exec bin/fannet_cli.exe -- serve --tcp 127.0.0.1:0 > serve_smoke.out & pid=$$!; \
	  for i in $$(seq 100); do grep -q listening serve_smoke.out && break; sleep 0.1; done; \
	  kill -TERM $$pid; for i in $$(seq 50); do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	  grep -q "fannetd stopped" serve_smoke.out; ok=$$?; kill -9 $$pid 2>/dev/null; \
	  rm -f serve_smoke.out; [ $$ok -eq 0 ]

# Crash-isolation smoke (~10 s): the supervised-fleet suite — worker
# death, restart and load replay, the restart-storm breaker, and the
# chaos soak: 16 concurrent clients against a supervised fannetd (2
# worker processes) whose workers _exit on every 7th query receipt. The
# soak asserts typed replies only, the accounting identity, at least one
# death and one restart, that some query decided, and that a daemon
# restarted on the same journal serves every journaled answer
# bit-identically from the recovered cache (certified answers re-checked
# by lib/cert), misses a never-journaled query, and serves a store hit
# faster than it recomputes that query.
chaos-smoke:
	dune exec test/test_serve_chaos.exe -- -q

# Model-counting smoke (~10 s): the counting suite — exact counts
# against brute-force enumeration, fannet-count-cert/1 certificates
# re-checked by the independent validator and tampering rejected,
# plain (one Bnb walk) = certified counts on a network, the root-first
# decomposition (a robust input's certified count is one refutation),
# jobs=1 vs jobs=4 byte-identity (certificate included), the (ε, δ)
# envelope over 20 seeds and at a pinned seed, tight-ε = exact,
# checkpoint exhaust-and-resume for both engines, each refusing the
# other's file, and a budget that stops a heavy walk. (A certified count
# across the daemon is in serve-smoke.) Then the CLI must refuse bad
# (ε, δ) parameters with a usage error (exit 2), and a plain count at
# the defaults (input 0, ±15, 887,503,681 vectors) must finish within
# 30 s with no flip.
count-smoke:
	dune exec test/test_count.exe -- -q
	@echo "count-smoke: checking (eps, delta) usage-error rejection paths"
	@dune exec bin/fannet_cli.exe -- count --approx --epsilon 0 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --epsilon 0 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --epsilon -0.5 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --epsilon -0.5 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --approx-delta 0 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --approx-delta 0 exited $$st, want usage error 2"; exit 1; }
	@dune exec bin/fannet_cli.exe -- count --approx --approx-delta 1.5 2>/dev/null; \
	  st=$$?; [ $$st -eq 2 ] || { echo "FAIL: --approx-delta 1.5 exited $$st, want usage error 2"; exit 1; }
	@echo "count-smoke: a plain count at the defaults within 30 s"
	@dune build bin/fannet_cli.exe
	@out=$$(timeout 30 dune exec bin/fannet_cli.exe -- count); st=$$?; \
	  [ $$st -eq 0 ] || { echo "FAIL: fannet count exited $$st, want 0"; exit 1; }; \
	  echo "$$out" | grep -q "0 of 887503681 vectors flip" || { echo "FAIL: fannet count printed: $$out"; exit 1; }

# E22 scaling-ladder smoke (< 15 s): the asserted subset of the deep &
# binarized ladder — gene-panel rungs cross-checked against the explicit
# enumerator (verdicts, flip counts and a lib/cert-validated certified
# verdict, sign comparators included; each plain count, one Bnb walk,
# within 10 ms), the 64-input 3-layer relu rung
# where pure interval bounds return Unknown but symbolic-bounds Bnb
# decides, and the deep binarized rung whose revalidated counterexample
# Bnb must find. Writes the untracked BENCH_ladder.smoke.json (the
# tracked BENCH_ladder.json is the full run's); exit 2 on any violated
# assertion. The bench must refuse an argument it does not know (exit 2)
# rather than fall through to the full multi-minute suite.
ladder-smoke:
	dune exec bench/main.exe -- --ladder --smoke -o BENCH_ladder.smoke.json
	dune exec bench/main.exe -- --parallel 2>/dev/null; [ $$? -eq 2 ]

# Repository-benchmark smoke (~40 s): each perfbench workload for 2 s
# untraced, then paper-batch and certify-cold traced so their
# layer-coverage gates run and serve-hot traced so its in-process
# Protocol/Json replay and its hit ratio gate run.
# Fails unless every result line reports "correct": true and "failed": 0.
PERFBENCH_OK = python3 -c 'import json, sys; r = json.loads(sys.stdin.read().splitlines()[-1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'

perfbench-smoke:
	@for run in paper-batch:0 certify-cold:0 serve-hot:0 serve-churn:0 paper-batch:1 certify-cold:1 serve-hot:1; do \
	  w=$${run%:*}; tr=$${run#*:}; \
	  echo "perfbench-smoke: $$w --trace $$tr"; \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace $$tr) \
	    || { echo "FAIL: perfbench $$w --trace $$tr did not finish"; exit 1; }; \
	  printf '%s\n' "$$out" | $(PERFBENCH_OK) \
	    || { echo "FAIL: perfbench $$w --trace $$tr is not correct or has failures"; exit 1; }; \
	done

# Full evaluation suite (E1-E14, E22 + Bechamel timings); takes minutes.
bench:
	dune exec bench/main.exe

# Scaling-ladder section (E22, ~1 min): {6, 64, 784} inputs x {2, 3, 4}
# layers x {relu-quantized, binarized} at noise deltas 1-2 — interval vs
# budgeted symbolic-bounds Bnb verdicts, explicit/count/certificate
# cross-checks on the small rungs, and the asserted precision gap.
# Emits BENCH_ladder.json.
bench-ladder:
	dune exec bench/main.exe -- --ladder

fmt:
	dune fmt

# BENCH_ladder.json is a tracked artefact (regenerated by `make bench`
# and `make bench-ladder`), so clean leaves it alone; the smoke gate's
# copy goes.
clean:
	dune clean
	rm -f certify_smoke.drup certify_smoke.drup.cnf metrics_smoke.json serve_smoke.out \
	  BENCH_ladder.smoke.json
