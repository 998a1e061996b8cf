#!/bin/sh
# Tier-1 gate plus the race suite: build, vet, plain tests, then the full
# test set under the race detector (the concurrency tests in internal/core
# and internal/sim only count when they run race-instrumented).
set -eux

go build ./...
# gofmt gate: every Go file of the module's packages and of the benchmark
# must be formatted.
test -z "$(gofmt -l $(go list -f '{{.Dir}}' ./...) perfbench)"
go vet ./...
go vet -tags telemetry_debug ./...
go test ./...
# The benchmark is its own module (perfbench/go.mod), which ./... above
# does not reach: vet and test it so an API change in the packages it
# drives fails here rather than only when the benchmark runs.
(cd perfbench && go vet ./... && go test ./...)
go test -race ./...

# Bench smoke: one iteration through the block-crypt benchmarks and the JSON
# emitter, so a bench or tooling regression fails CI without costing real
# benchmark time. -require pins the expected result count per pattern, so a
# renamed benchmark silently matching nothing also fails.
go test ./internal/core -run xxx -bench 'BenchmarkBlock' -benchtime 1x -benchmem \
	| go run ./cmd/benchjson -require 3 -o /dev/null
go test ./internal/poe -run xxx -bench 'BenchmarkPlacement8x8' -benchtime 1x -benchmem \
	| go run ./cmd/benchjson -require 1 -o /dev/null
( go test ./internal/linalg -run xxx -bench 'BenchmarkCholeskyFactor' -benchtime 1x -benchmem ; \
  go test ./internal/xbar -run xxx -bench 'BenchmarkColdCharacterize(8x8|64x64)$' -benchtime 1x -benchmem ) \
	| go run ./cmd/benchjson -require 3 -o /dev/null
go test ./internal/redteam -run xxx -bench . -benchtime 1x -benchmem \
	| go run ./cmd/benchjson -require 4 -o /dev/null

# Telemetry smoke: spe-sim serves /metrics while the concurrency experiment
# runs; the snapshot must be well-formed JSON with live SPECU counters.
tmpdir=$(mktemp -d)
simpid=
trap 'kill $simpid 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/spe-sim" ./cmd/spe-sim

# Batch scheduler matrix: the coalesced batch benches at -cpu 1,$(nproc)
# (2 benches x workers {1,4,8} x 2 GOMAXPROCS levels = 12 results).
# benchjson derives a speedup_vs_w1 ratio for every workers>1 result against
# its workers=1 sibling at the same -cpu level. The gate is parallel
# efficiency, speedup_vs_w1 / min(workers, nproc), of
# BenchmarkSPECUEncryptBatch at -cpu $(nproc): 1.0 is perfect scaling and
# 1/nproc no parallelism at all, so one threshold holds on any core count.
# 0.6 does not sit below every sample on a shared 2-vCPU host at
# -benchtime 200x (20x was too noisy to gate): 3 of the 16 matrix runs
# EXPERIMENTS.md records from before the permutation memo read 0.402-0.582
# at workers 4 or 8, and the gate failed on host noise there. 12
# standalone runs with the memo read 0.631-1.142. The threshold still sits
# above the 0.5 a 2-vCPU run scores with no parallel speedup.
# sched.Workers clamps to the host's CPUs (NumCPU and the cgroup quota),
# so on a single-vCPU host real runs get one worker and the batch path
# takes its inline fast path by design; the assertion is skipped there
# rather than asserted vacuously, and the matrix itself still runs,
# catching functional regressions.
ncpu=$(nproc)
go test ./internal/core -run xxx -bench 'BenchmarkSPECU(ShardedRead|EncryptBatch)' \
	-benchtime 200x -benchmem -cpu "1,$ncpu" \
	| go run ./cmd/benchjson -require 12 -o "$tmpdir/batch_matrix.json"
if [ "$ncpu" -gt 1 ]; then
	python3 -c '
import json, sys
rep = json.load(open(sys.argv[1]))
ncpu = int(sys.argv[2])
ratios = {r["name"]: r["extra"]["speedup_vs_w1"]
          for r in rep["results"] if "speedup_vs_w1" in r.get("extra", {})}
for w in (4, 8):
    name = "BenchmarkSPECUEncryptBatch/workers=%d-%d" % (w, ncpu)
    eff = ratios.get(name, 0.0) / min(w, ncpu)
    assert eff >= 0.6, (name, "parallel efficiency", eff, ratios)
' "$tmpdir/batch_matrix.json" "$ncpu"
else
	echo "ci: 1 vCPU; skipping batch parallel-efficiency assertion (workers clamp to one)"
fi

# Bench regression gate: the live batch matrix against the committed
# archive. The ns/op bound is deliberately generous (CI boxes differ from
# the archiving machine by integer factors); the allocs/op bound is tight
# because allocation counts are machine-independent — a new allocation on
# the coalesced hot path fails CI even when the wall clock looks fine.
go run ./cmd/benchjson -diff BENCH_specu.json "$tmpdir/batch_matrix.json" \
	-max-regress 500 -max-allocs-regress 25

# The same gate on the single-op paths: a synchronous Parallel read (the
# read-through), an overwrite of ciphertext, a Serial flush of read-decrypted
# blocks (the restore, zero allocations), the 8x8 read-through and
# overwrite pulses on their own (the ApplyPulse rung, zero allocations on
# both the memoized path and the dense recompute) and the key schedule at
# 16 and 37 PoEs (the DeriveSchedule rung, zero allocations), each at the
# archive's own -benchtime so warm-up allocations amortize over the same
# op count.
( go test ./internal/core -run xxx -bench 'BenchmarkSPECU(SequentialRead|EncryptTelemetryOff|Flush)' \
	-benchtime 20x -benchmem ; \
  go test ./internal/xbar -run xxx -bench 'BenchmarkApplyPulse/(readthrough|overwrite)/8x8$' -benchmem ; \
  go test ./internal/prng -run xxx -bench 'BenchmarkDeriveSchedule' -benchmem ) \
	| go run ./cmd/benchjson -require 7 -o "$tmpdir/single_op.json"
go run ./cmd/benchjson -diff BENCH_specu.json "$tmpdir/single_op.json" \
	-max-regress 500 -max-allocs-regress 25

# Size-wall smoke: a full 32x32 precharacterization must finish inside a
# CI-sane wall clock. Before the locality-truncated sketch path even 24x24
# was unreachable (the dense path needed ~7 s for 16x16 alone and scaled
# as cells^4), and before the hierarchical backend 32x32 took ~3.2 s per
# pass; the budget fails CI if the size wall ever comes back. The JSON
# check also pins the machine-readable report shape and that 32x32 really
# resolves to the hierarchical backend with a bounded Green-table fill.
timeout 300 "$tmpdir/spe-sim" -exp sizewall -rows 32 -cols 32 -json >"$tmpdir/sizewall.json"
python3 -c '
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["rows"] == rep["cols"] == 32 and rep["path"] == "sketch", rep
assert rep["scaled_slack"] == 248, rep
runs = {r["label"]: r for r in rep["runs"]}
full = runs["full precharacterize"]
assert full["backend"] == "hier", full
assert 0 < full["table_entries"] < full["table_entries_dense"], full
assert full["peak_heap_bytes"] > 0 and full["cells_visited"] > 0, full
' "$tmpdir/sizewall.json"

# Red-team smoke: the adversarial harness must exit 0 with a clean verdict —
# the power-balanced driver statistically silent, the leaky raw driver
# flagged, nothing scraped after a clean PowerOff, and epoch re-encryption
# shrinking the exposure window. The python check pins the JSON shape so a
# report field rename also fails CI.
"$tmpdir/spe-sim" -redteam all >"$tmpdir/redteam.json"
python3 -c '
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["pass"] and rep["failures"] == [], rep["failures"]
drivers = {r["driver"]: r["leaks"] for r in rep["sidechannel"]}
assert drivers == {"balanced": False, "raw": True}, drivers
scraped = [r["scraped_bytes"] for r in rep["crash"]]
assert scraped[0] > scraped[1] > scraped[2] == 0, scraped
exp = [r["exposure_byte_cycles"] for r in rep["exposure"]]
assert exp[1] < exp[0], exp
' "$tmpdir/redteam.json"

# Causal-trace smoke: a clean-exit traced run must leave a Chrome
# trace-event file that Perfetto would load — parseable JSON, every event
# carrying name/ph/ts, complete events carrying pid/tid/dur, timestamps
# monotone and well-nested per tid, and every recorded parent resolvable.
# (The file is written by a defer, so this run must exit normally, not be
# killed.)
timeout 120 "$tmpdir/spe-sim" -exp concurrency -insts 20000 \
	-trace-out "$tmpdir/trace.json" >/dev/null
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert evs, "empty trace"
spans, parents, stacks, last = set(), [], {}, {}
for ev in evs:
    assert "name" in ev and "ph" in ev, ev
    if ev["ph"] == "M":
        continue
    assert "ts" in ev and "pid" in ev and "tid" in ev, ev
    tid = ev["tid"]
    assert ev["ts"] >= last.get(tid, 0), ("ts not monotone on tid", ev)
    last[tid] = ev["ts"]
    args = ev.get("args", {})
    if "parent_id" in args:
        parents.append(args["parent_id"])
    if ev["ph"] != "X":
        continue
    spans.add(args["span_id"])
    st = stacks.setdefault(tid, [])
    while st and ev["ts"] >= st[-1]:
        st.pop()
    end = ev["ts"] + ev["dur"]
    assert not st or end <= st[-1] + 1e-6, ("overlap on tid", ev)
    st.append(end)
names = {e["name"] for e in evs}
for want in ("specu.read_batch", "specu.write_batch"):
    assert want in names, (want, names)
missing = [p for p in parents if p not in spans]
assert not missing, ("unresolved parents", missing[:5])
' "$tmpdir/trace.json"

"$tmpdir/spe-sim" -exp concurrency -telemetry-addr 127.0.0.1:0 -telemetry-hold 120s \
	>"$tmpdir/sim.log" 2>&1 &
simpid=$!
addr=
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^telemetry: listening on //p' "$tmpdir/sim.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
test -n "$addr"
ok=
for _ in $(seq 1 120); do
	if curl -fsS "http://$addr/metrics" >"$tmpdir/metrics.json" 2>/dev/null &&
		python3 -c '
import json, sys
snap = json.load(open(sys.argv[1]))
c = snap["counters"]
assert c.get("specu.reads", 0) > 0, c
assert c.get("specu.writes", 0) > 0, c
assert c.get("specu.sched_reused", 0) > 0, c
assert snap["histograms"], "no histograms exported"
fg = snap.get("float_gauges", {})
burn = [k for k in fg if k.startswith("slo.") and k.endswith(".burn_rate")]
assert burn, ("no SLO burn-rate gauges", sorted(fg))
' "$tmpdir/metrics.json" 2>/dev/null; then
		ok=1
		break
	fi
	sleep 0.5
done
test -n "$ok"

# The live /trace endpoint serves the same Chrome JSON, and garbage query
# parameters on the introspection endpoints must 400, never silently
# default.
curl -fsS "http://$addr/trace" >"$tmpdir/trace_live.json"
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["traceEvents"], "live /trace exported no events"
' "$tmpdir/trace_live.json"
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/spans?max=bogus")" = 400
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/trace?max=-1")" = 400
kill $simpid 2>/dev/null || true
