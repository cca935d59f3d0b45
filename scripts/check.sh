#!/bin/sh
# Tier-1 verification: build, vet, test, and race-test everything.
# CI and pre-commit both run this script; keep it fast and exhaustive.
set -eu
cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

# Formatting: every tracked Go file outside testdata/ must be gofmt-clean
# (analyzer fixtures under testdata/ keep their deliberate layouts).
echo '== gofmt'
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs -r gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Determinism & shard-safety lints: no wall clock or global math/rand in
# sim-facing code, no effectful map-range iteration, no blocking calls in
# event callbacks, no dropped event handles, no HIB recorders that bypass
# the trace pipeline, no filesystem access outside the spill writer — and
# the interprocedural suite: taint (no call chain reaching wall-clock,
# rand, env, or host identity), noalloc (//tgvet:noalloc hot paths proven
# allocation-free, transitively), and handle (pooled event-handle
# lifetime). Must exit clean before the test phases run; `make
# lint-fix-audit` lists every //tgvet:allow escape hatch with its reason.
echo '== tgvet ./...'
go run ./cmd/tgvet ./...

echo '== go test ./...'
go test ./...

echo '== go test -race ./...'
go test -race ./...

# The benchmark is its own module (perfbench/go.mod), so ./... above
# skips it. Its tests drive core.AttachTrace, WindowedLog and
# linearize.Online end to end through the coherent workload.
echo '== perfbench tests'
(cd perfbench && go test ./...)

# Sharded-engine determinism: the same workloads must produce the
# checked-in golden traces and experiment results on 1, 2, 4, and 8
# shards, with the shard workers packed onto one OS thread and spread
# across four. At -cpu 1 the sim test's seven spinning 8-shard workers
# share one P with the round scheduler, which must still finish.
echo '== shard determinism (-cpu 1,4)'
go test ./internal/sim -run TestGroupDeterministicAcrossShardCounts -cpu 1,4 -count 1
go test ./internal/simtest -run TestShardInvariantTraceHash -cpu 1,4 -count 1
go test ./internal/experiments -run TestExperimentsShardInvariant -cpu 1,4 -count 1

# Hot-path allocation budgets: schedule/fire/recycle and Chan.Send must
# stay at zero allocations per event in steady state, and so must the
# streaming trace pipeline's ring append + k-way drain + incremental hash.
# A transient process that reuses an idle coroutine allocates only its
# Proc and wake closure, and an ARQ frame only its arrive and ack
# closures.
echo '== allocation budgets (-cpu 1,4)'
go test ./internal/sim -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/trace -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/link -run 'Allocs$' -cpu 1,4 -count 1

# Bounded-memory gate: a long chaos run must keep peak trace residency
# and the online checker's undecided windows O(window), not O(events),
# and a mid-run checkpoint/restore must reproduce the uninterrupted
# run's final trace hash.
echo '== bounded memory + checkpoint/restore'
go test ./internal/simtest -run 'TestBoundedResidency|TestCheckpointRestore' -count 1
go run ./cmd/tgchaos -seeds 5 -checkpoint -window 512

# Throughput floor: a short single-shard PDES smoke must stay above the
# floor recorded by `make bench` (BENCH_pdes.floor). The floor is scaled
# down on hosts that run the calibration spin slower than the recording
# host, so this catches engine regressions, not slow CI hardware.
echo '== PDES throughput floor'
go test ./internal/experiments -run '^$' -bench BenchmarkPDESThroughputFloor -benchtime 3x -count 1

# Parallel-efficiency floor: the same 64-node workload on 2 shards
# against two 1-shard runs side by side in one process, median of 3
# trials, must stay above min_parallel_efficiency in BENCH_pdes.floor.
# Skips, and says so, on a host with fewer than 2 CPUs or GOMAXPROCS
# below 2.
echo '== PDES 2-shard parallel efficiency'
go test ./internal/experiments -run '^$' -bench BenchmarkPDESParallelEfficiency -benchtime 1x -count 1 -v

echo '== tgchaos 2-shard smoke'
go run ./cmd/tgchaos -seeds 10 -shards 2

# In-network collective smoke (DESIGN.md §16): E15 runs the 64-node
# in-fabric vs host-side barrier comparison and checks that a 64-node
# hot-counter fetch&add stream reaches the same final count with
# switch-level combining as without it.
echo '== collectives smoke (E15)'
go run ./cmd/tgbench -exp E15 >/dev/null

# Memory-model conformance: the trimmed litmus matrix must be free of
# linearizability/fence violations and must still reproduce the
# Galactica baseline's §2.4 anomaly. The quick sweep includes the
# combining-enabled arms of every fetch&inc test.
echo '== tglitmus quick sweep'
go run ./cmd/tglitmus -quick

# Topology-zoo gates (DESIGN.md §17): the deadlock-freedom proof over
# every generated fabric (CDG acyclicity, all-pairs reachability,
# minimality, adversarial completion), then a litmus smoke on the
# 16-node torus — the memory-model verdicts must not depend on the
# wires the protocol runs over.
echo '== topology deadlock-freedom harness'
go test ./internal/topology -count 1
echo '== tglitmus torus smoke'
go run ./cmd/tglitmus -topo -quick -tests SB,MP+fence >/dev/null

# Every fuzz target must be exercised by `make fuzz`: each `func Fuzz*`
# in a _test.go file needs a `-fuzz '^Name$$'` line for its package in
# the Makefile's fuzz recipe.
echo '== make fuzz lists every fuzz target'
fuzz_recipe=$(awk '/^fuzz:/ { on = 1; next } on && !/^\t/ { on = 0 } on' Makefile)
missing=$(git grep -o '^func Fuzz[A-Za-z0-9_]*' -- '*_test.go' | while IFS=: read -r file decl; do
	name=${decl#func }
	pkg=./$(dirname "$file")
	printf '%s\n' "$fuzz_recipe" | grep -qF -- "test $pkg -fuzz '^$name\$\$'" || echo "$pkg $name"
done)
if [ -n "$missing" ]; then
	echo "make fuzz: these fuzz targets have no line in the Makefile's fuzz recipe:" >&2
	echo "$missing" >&2
	exit 1
fi

echo '== linearizability smoke (fuzz corpora replay)'
go test ./internal/linearize ./internal/consistency -count 1

# Coverage ratchet for the checker packages: raise the minimum when you
# raise the coverage, never lower it.
echo '== checker coverage ratchet'
check_cover() {
	pkg="$1"; min="$2"
	profile=$(mktemp); trap 'rm -f "$profile"' EXIT
	pct=$(go test -coverprofile="$profile" "./$pkg" \
		| sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	rm -f "$profile"
	if [ -z "$pct" ]; then
		echo "coverage ratchet: no coverage figure for $pkg" >&2; exit 1
	fi
	if [ "$(awk -v p="$pct" -v m="$min" 'BEGIN{print (p>=m)?1:0}')" != 1 ]; then
		echo "coverage ratchet: $pkg at ${pct}%, minimum is ${min}%" >&2; exit 1
	fi
	echo "   $pkg ${pct}% (minimum ${min}%)"
}
check_cover internal/linearize 85
check_cover internal/litmus 75
check_cover internal/consistency 90
check_cover internal/analysis 85
check_cover internal/collective 80
check_cover internal/topology 90

echo 'tier-1: all checks passed'
