GO ?= go

.PHONY: build test test-race vet fuzz bench bench-specu bench-ilp bench-linalg test-attacks ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race suite: everything under the race detector. This is the gate for
# changes to internal/core's sharded SPECU, its helper budget and the batch
# layer (see DESIGN.md, "Concurrency model").
test-race:
	$(GO) test -race ./...

# Short fuzz passes over the round-trip harnesses (FuzzTrackerMatchesScratch
# checks pulse trains against a memo-free twin crossbar); lengthen -fuzztime
# for a real hunt.
fuzz:
	$(GO) test ./internal/core -run xxx -fuzz FuzzSPERoundTrip -fuzztime 30s
	$(GO) test ./internal/cipher/stream -run xxx -fuzz FuzzStreamRoundTrip -fuzztime 30s
	$(GO) test ./internal/trace -run xxx -fuzz FuzzParseWorkload -fuzztime 30s
	$(GO) test ./internal/xbar -run xxx -fuzz FuzzTrackerMatchesScratch -fuzztime 30s

# The hardened attack tier: the red-team harness (side channels, crash
# injection, exposure windows), the attack cost models, and the secure-engine
# edge/workload suites — with the concurrency chaos test race-instrumented,
# then archived as BENCH_attacks.json so defense metrics diff across commits.
test-attacks:
	$(GO) test ./internal/redteam ./internal/attacks ./internal/secure ./internal/trace
	$(GO) test -race ./internal/redteam -run TestConcurrentBatchesUnderPowerCycles
	$(GO) test ./internal/redteam -run xxx -bench . -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -require 4 -o BENCH_attacks.json
	@cat BENCH_attacks.json

# The benchmark archives, one recipe per archive, so a change regenerates
# only the archive its code feeds; bench rewrites all three.
bench: bench-specu bench-ilp bench-linalg

# SPECU hot-path benchmarks (the DeriveSchedule rung, the dense
# deviation-sum rung, the pulse-train rung, block crypt, the Serial flush
# and the sharded pipeline), archived as JSON so runs can be diffed across commits
# (EXPERIMENTS.md records the headline numbers). The second core run
# repeats the coalesced batch benches at -cpu 4 so the archive carries the
# multi-core matrix (benchjson derives speedup_vs_w1 per -cpu level); on a
# host with fewer than 4 vCPUs those rows resolve to the host's CPUs
# (sched.Workers clamps to the smallest of GOMAXPROCS, NumCPU and the cgroup
# cpu.max quota), so ci.sh gates parallel efficiency on a -cpu 1,$(nproc)
# matrix instead.
bench-specu:
	( $(GO) test ./internal/prng -run xxx -bench 'BenchmarkDeriveSchedule' -benchmem ; \
	  $(GO) test ./internal/xbar -run xxx -bench 'BenchmarkDeviationSync|BenchmarkTrain' -benchmem ; \
	  $(GO) test ./internal/core -run xxx -bench 'BenchmarkBlock|BenchmarkNewBlock|BenchmarkSPECU' -benchtime 20x -benchmem ; \
	  $(GO) test ./internal/core -run xxx -bench 'BenchmarkSPECU(ShardedRead|EncryptBatch)' -benchtime 20x -benchmem -cpu 4 ) \
		| $(GO) run ./cmd/benchjson -require 32 -o BENCH_specu.json
	@cat BENCH_specu.json

bench-ilp:
	$(GO) test ./internal/poe -run xxx -bench 'BenchmarkPlacement' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -require 2 -o BENCH_ilp.json
	@cat BENCH_ilp.json

bench-linalg:
	( $(GO) test ./internal/linalg -run xxx -bench 'BenchmarkCholesky' -benchtime 10x -benchmem ; \
	  $(GO) test ./internal/xbar -run xxx -bench 'BenchmarkColdCharacterize' -benchtime 3x -benchmem ) \
		| $(GO) run ./cmd/benchjson -require 10 -o BENCH_linalg.json
	@cat BENCH_linalg.json

ci:
	./ci.sh
