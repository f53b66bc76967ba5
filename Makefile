# Tier-1 gate: everything a change must pass before merging.
# The -race pass covers the concurrency-heavy packages (TCP broker,
# reconnecting client, real-mode runtime, serving) plus tensor whole (replica
# fan-out, the step slots and the matmul scratch pool are all it shares), the
# nn checkpoint-vs-Forward and concurrent-replica tests, the sim driver's
# parallel evaluation reading weights beside the steps in flight, and its
# training steps running on four slots while deliveries, DKT merges,
# checkpoints, restores and late joins of deferred steps arrive, and grad
# whole plus the ownership tests of core and cluster, so the alias between
# Param.G and an in-flight encode is race-checked (all of core is 80 s under
# -race); running it repo-wide would multiply simulation test time ~20x for
# no extra coverage.
.PHONY: verify check build fmt vet test race fuzz-smoke conformance bench bench-serve bench-sim bench-e2e chaos e2e-jobs audit-gate fma-gate

check: build fmt vet test race fuzz-smoke

# The whole merge gate, in order; CI's check job runs exactly this. After
# check, conformance, e2e-jobs and audit-gate come three smokes:
# - DES throughput: a flat 8-worker mesh, then the 4-cloud 256-worker
#   federation, whose t = 0 all-to-all burst (65 280 events inside 15 ms of
#   virtual time) is the schedule an O(bucket) or O(n²) scheduler chokes on;
#   a reintroduced superlinear cost shows up as a run that stops finishing
#   (full sweep: make bench-sim).
# - The step slots (DESIGN.md §2): the Run goldens, the churn scenarios and
#   the lazy-step scenarios must come out bit-identical with one step at a
#   time, two and four.
# - The repository benchmark, 2 seconds per workload, each of which must end
#   "correct":true: train_wire traced (its transport shim decodes the frames
#   it kept after the run, so a recycled frame buffer that did not hold a
#   whole frame fails it), train_compute (every worker reaches MaxIters with
#   exactly its peers' gradients and no FIFO drop), sim_fed256 (three
#   256-worker Runs, one round each, no idle worker) and serve_swap (every
#   request answered, every swap landed).
verify: check conformance e2e-jobs audit-gate fma-gate
	go run ./cmd/dlion-bench -sim -sim-n 8,256
	go test -count=1 -cpu 1,2,4 -run 'RunGoldens|Churn|LazySteps|EvalOnce' ./internal/cluster
	@out="$$(mktemp)"; for run in "train_wire 1" "train_compute 0" "sim_fed256 0" "serve_swap 0"; do \
		set -- $$run; \
		bash benchmark/run.sh --workload $$1 --seconds 2 --trace $$2 | tee "$$out"; \
		tail -n 1 "$$out" | grep -q '"correct":true' || { echo "benchmark smoke $$1 failed"; rm -f "$$out"; exit 1; }; \
	done; rm -f "$$out"

build:
	go build ./...

# gofmt -l prints the files it would rewrite; any output fails the gate.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./internal/bufpool/... ./internal/wire/... ./internal/queue/... ./internal/realtime/... ./internal/serve/... ./internal/jobs/... ./internal/grad/... ./internal/tensor/...
	go test -race -run 'Borrow|Own' ./internal/core/... ./internal/cluster/...
	go test -race -run 'Concurrent' ./internal/nn/... ./internal/obs/...
	go test -race ./internal/simclock/...
	go test -race -run 'ParallelEval|RunGoldens|StepSlotsRace|LazySteps|EvalOnce' ./internal/cluster/...

# Short fuzz pass over the wire decoder, the broker's request framing, the
# serve-update frame decoder (header + JSON manifest), the /predict body
# parser against encoding/json, and the scheduler-vs-reference-heap oracle:
# catches panics, canonicalization and length-bound regressions, a body the
# parser answers differently from encoding/json, and event-ordering
# divergence without the cost of a long campaign. The committed corpora
# under internal/wire, internal/queue and internal/serve testdata/fuzz seed
# the decoder targets.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	go test -run='^$$' -fuzz=FuzzReadRequest -fuzztime=10s ./internal/queue
	go test -run='^$$' -fuzz=FuzzDecodeUpdate -fuzztime=10s ./internal/serve
	go test -run='^$$' -fuzz=FuzzParsePredict -fuzztime=10s ./internal/serve
	go test -run='^$$' -fuzz=FuzzSchedulerVsHeap -fuzztime=10s ./internal/simclock

# Conformance harness (see TESTING.md): gradcheck on every nn layer,
# sim<->realtime weight equivalence (bit-identical digests under ordered
# apply, the exact churn contract with a leave) and the lineage replay
# audit, under the race detector. Every comparison is exact, so the second
# pass reruns the equivalence gates, the Run goldens (convergence rows
# included) and the step-slot scenarios against their all-inline digests on
# 386, the portable kernels (-race is not supported there; the slot scenarios
# add ≈ 50 s on a 2-core box), and holds those kernels to the tensor
# package's bit-exact references and the served f32 view (nn.View, Dense
# weights packed once) to Model.Forward. The next 386 line runs the decoders'
# committed seeds (wire frames, serve update frames, checkpoints) whose length
# fields overflow a 32-bit int: each must be an error, not a panic; and the
# /predict body seeds, each of which must parse as encoding/json decodes it
# on 32 bits too. The last
# runs the audit gate's self-test on 386 (≈ 20 s with its compile): it must
# verify the same digests on both substrates as the host build does and
# detect both forgeries, the check that a digest is a function of (seed,
# config) and not of the architecture (DESIGN.md §13).
conformance:
	go test -race -count=1 ./internal/testkit/...
	GOARCH=386 go test -count=1 -run 'RunGoldens|Equivalence|MixedPrecision|StepSlotsMatchSequential' ./internal/cluster ./internal/testkit
	GOARCH=386 go test -count=1 -run BitExact ./internal/tensor ./internal/nn
	GOARCH=386 go test -count=1 -run 'FuzzDecode|FuzzDecodeUpdate|FuzzParsePredict|Restore|Scan' ./internal/wire ./internal/serve ./internal/nn
	@host="$$(go run ./cmd/dlion-audit -self-test)" || exit 1; \
	i386="$$(GOARCH=386 go run ./cmd/dlion-audit -self-test)" || exit 1; echo "$$i386"; \
	[ "$$host" = "$$i386" ] || { echo "conformance: dlion-audit -self-test differs between $$(go env GOARCH) and 386"; exit 1; }

# Kernel and scheduler microbenchmarks (simclock's EngineBurst is the
# 256-worker all-to-all schedule, EngineHold the constant-size hold model),
# emitted as a BENCH JSON report (see METRICS.md).
# The committed BENCH_kernels.json doubles as the baseline: benchfmt reads it
# before overwriting, prints per-benchmark deltas, and BENCH_REGRESS (a
# percentage, empty = off) turns the comparison into a hard gate. -cpu 1
# keeps the benchmark names free of the -N GOMAXPROCS suffix, so the
# baseline matches by name on any box.
bench:
	go test -run='^$$' -bench=. -benchmem -cpu 1 \
		./internal/tensor/... ./internal/nn/... ./internal/grad/... ./internal/wire/... \
		./internal/queue/... ./internal/simclock/... ./internal/core/... \
		| go run ./cmd/dlion-benchfmt -out BENCH_kernels.json \
			-baseline BENCH_kernels.json -regress '$(or $(BENCH_REGRESS),0)'

# Serving load benchmark: batch=1 vs dynamic micro-batching vs overload
# shedding, emitted as BENCH_serve.json (see EXPERIMENTS.md).
bench-serve:
	go run ./cmd/dlion-bench -serve -json BENCH_serve.json

# DES throughput: events per wall second at 6/32/128 workers (flat mesh,
# with and without elastic churn) and 256/512/1024 workers (4-cloud
# hierarchical federations), emitted as BENCH_sim.json. The committed
# report is the baseline, like BENCH_kernels.json. -cpu 2 is the ruler's
# GOMAXPROCS: a Run's training steps go to two step slots beside its event
# loop (DESIGN.md §2), and the -2 name suffix is the same on any box.
# For profiling one workload, use
# `go run ./cmd/dlion-bench -sim -cpuprofile sim.pprof`.
bench-sim:
	go test -run='^$$' -bench=SimEvents -benchtime=1x -cpu 2 -timeout 60m ./internal/cluster \
		| go run ./cmd/dlion-benchfmt -name sim -out BENCH_sim.json \
			-baseline BENCH_sim.json -regress '$(or $(BENCH_REGRESS),0)'

# The repository benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads end to end, then a traced pass for the per-layer ledger. Compare
# two commits by running this in a checkout of each, interleaved.
bench-e2e:
	bash benchmark/run.sh --trace 1

# Control-plane end-to-end gate (see TESTING.md): one broker, two
# concurrent jobs with different sync strategies trained to completion over
# the REST API, quota rejection, and store persistence — under -race.
e2e-jobs:
	go test -race -count=1 -run 'TestE2E' ./internal/jobs

# Checkpoint-lineage audit gate (see TESTING.md): a seeded two-worker
# ordered-apply training segment is checkpointed with a chained manifest,
# replayed on both substrates by dlion-audit, and the published digest must
# match bit-exactly — and the built-in forgeries (one mutated weight value,
# one flipped parent-digest bit) must both be reported as verification
# failures. Exits nonzero on any divergence.
audit-gate:
	go run ./cmd/dlion-audit -self-test

# No fused multiply-add outside the assembly (DESIGN.md §9): the arm64,
# ppc64le, riscv64 and s390x compilers fuse x*y + z into one rounding unless
# the product is converted, float32(x*y) + z, which would make a digest
# depend on the CPU. Offline and in seconds: for each of those
# architectures, cross-compile dlion-sim, dlion-audit and the tensor
# package's test binary (it links every kernel, called or not) and fail if
# a disassembly fails, lists no dlion/ symbol, or shows one of that
# architecture's fused instructions in one.
fma-gate:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for arch in 'arm64 FN?M(ADD|SUB)[SD]' 'ppc64le FN?M(ADD|SUB)S?' 'riscv64 FN?M(ADD|SUB)[SD]' 's390x M[AS][DE]BR?'; do \
		set -- $$arch; \
		GOARCH=$$1 go build -o "$$dir/dlion-sim" ./cmd/dlion-sim || exit 1; \
		GOARCH=$$1 go build -o "$$dir/dlion-audit" ./cmd/dlion-audit || exit 1; \
		GOARCH=$$1 go test -c -o "$$dir/tensor.test" ./internal/tensor || exit 1; \
		for bin in dlion-sim dlion-audit tensor.test; do \
			go tool objdump -s 'dlion/' "$$dir/$$bin" > "$$dir/dump" || { echo "fma-gate: objdump of $$bin ($$1) failed"; exit 1; }; \
			grep -q '^TEXT dlion/' "$$dir/dump" || { echo "fma-gate: no dlion/ symbol in $$bin ($$1)"; exit 1; }; \
			if awk -v re="^($$2)$$" '/^TEXT/ { sym = $$2 } $$4 ~ re { print sym, $$1, $$4; found = 1 } END { exit !found }' "$$dir/dump"; then \
				echo "fma-gate: fused multiply-add in a dlion/ symbol of $$bin ($$1)"; exit 1; \
			fi; \
		done; \
	done

# Churn soak for the scheduled CI job: the sim churn scenarios, the
# membership protocol tests, the failure detector's suspicion, re-admission
# and restart-as-rejoin tests (core, a healed partition, a slow real-mode
# restart), the broker client's reconnect, vanished-consumer and restart
# tests, and the worker group's crash-restart path (realtime.Group and the
# job control plane that drives it), repeated under the race detector.
# -count=3 re-runs catch schedule-dependent flakes a single pass would miss.
# The pattern also takes in the simulator's crash and partition scenarios
# (internal/cluster faults_test.go, 14–80 s each a pass under -race on a
# 2-core box), which put that package's three passes past go test's
# 10-minute default, hence the explicit -timeout. TestChaosRenormalization
# reruns those schedules on the deterministic simulator (≈ 120 s a pass
# under -race), so it runs in `make test` only.
chaos:
	go test -race -count=3 -timeout 30m -run 'Membership|Churn|Join|Leave|Quorum|Suspect|Rejoin|DKTSkipsDead|PeerDies|Elastic|Reconnect|Vanish|Restart|Crash|Group|Partition|SlowRestart' \
		./internal/core/... ./internal/cluster/... ./internal/queue/... ./internal/realtime/... ./internal/testkit/... ./internal/jobs/...
