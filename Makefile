GO ?= go

.PHONY: check build vet test fmt capacity admission layout ledger bench benchall profile-admission profile-dataplane trace loc

# check is the tier-1 gate: vet, build, race tests, formatting, the
# capacity gate, and the layout-synthesis gate.
check: vet build test fmt capacity layout

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# fmt fails (rather than rewrites) so CI catches unformatted files.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# capacity runs the capacity-probe campaign on a small mesh plus the
# admission audit byte-identity gate; it exits nonzero on a ledger
# conservation violation, an unexplained rejection, or an audit log
# that differs across worker counts.
capacity:
	$(GO) run ./cmd/rtbench -exp capacity -mesh 6 -scenario scenarios/faulty.json -cycles 35000

# admission runs the mass-admission throughput campaign: 100k-request
# uniform/hotspot/transpose batches on a 16×16 mesh, timing the
# Reference controller (from-scratch EDF, no memos, no speculation,
# same planner) against the incremental-EDF path in the same run
# (serial vs serial, so the speedup floor is enforceable on any
# hardware), checking batch byte-identity at workers 1/2/4, and
# churning teardown/re-admit against the ledger verifier. The speedup
# is what the caches alone buy; transpose, the family they help least,
# reads ~3.2× on a 2-vCPU host, hence the floor of 3.
admission:
	$(GO) run ./cmd/rtbench -exp admission -requests 100000 -min-admit-speedup 3

# layout runs the channel-layout synthesis campaign on an 8×8 mesh:
# per family, the greedy planner versus the route-and-split search over
# identical request sequences. It exits nonzero if the synthesizer ever
# admits fewer channels than greedy, if it fails to strictly beat
# greedy on the hotspot family (transpose fully admits at this size, so
# strictness there is enforced by CI's 16×16 run), if either ledger
# breaks conservation, or if the Reference-mode shadow controller
# refuses — or re-seals differently — any synthesized layout.
layout:
	$(GO) run ./cmd/rtbench -exp layout -mesh 8 -strict-layout hotspot

# ledger runs the performance ledger's own tests (benchmark/ is a
# separate module, so `go test ./...` does not descend into it),
# including its -smoke pass over every BENCHMARK.json workload.
ledger:
	$(GO) test -C benchmark ./...

# bench runs the simulator-speed micro-benchmarks (router tick hot
# paths, cycle rate sequential vs parallel, scheduler selection, sort
# keys) with allocation reporting, the admission-path benchmarks with
# their allocs-per-admit ceiling (TestAdmitAllocs fails the run if the
# steady-state admit path starts allocating), then runs the scaling
# sweep — mesh size × worker count, printing the speedup table — and
# records machine-readable numbers (including allocs/cycle, GOMAXPROCS
# and NumCPU) in $(BENCH_JSON). The sweep stops at 64×64, as rtbench's
# own default does: the 128×128 rows need more than 16 GB of memory and
# get the process (or a neighbour on a shared host) OOM-killed; ask for
# them with `rtbench -exp sweep -mesh 128` where there is room.
BENCH_JSON ?= BENCH_router.json
bench:
	$(GO) test -run '^$$' -bench BenchmarkRouterTick -benchmem ./internal/router
	$(GO) test -run '^$$' -bench 'BenchmarkRouterCycleRate|BenchmarkT4SchedulerThroughput|BenchmarkFig6SortKeys' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkAdmit$$|BenchmarkAdmitFill$$|BenchmarkAdmitChurn$$|BenchmarkAdmitBatch$$|BenchmarkLinkCheckCached$$' -benchmem ./internal/admission
	$(GO) test -run TestAdmitAllocs -count=1 ./internal/admission
	$(GO) run ./cmd/rtbench -exp sweep -mesh 8,16,32,64 -benchjson $(BENCH_JSON)

# benchall runs every benchmark, including the full experiment replays.
benchall:
	$(GO) test -bench=. -benchmem ./...

# profile-admission CPU-profiles the incremental admission path alone —
# the filling and the churning micro-benchmarks; `rtbench -exp admission`
# also times the Reference leg, which would drown it — and prints the
# top of the profile. A hot-path change quotes this before and after
# in its change notes. Leaves $(ADMISSION_PROF) and the test binary behind.
ADMISSION_PROF ?= admission.prof
profile-admission:
	$(GO) test -run '^$$' -bench 'BenchmarkAdmitFill$$|BenchmarkAdmitChurn$$' -benchtime 3s \
		-cpuprofile $(ADMISSION_PROF) -o admission.test ./internal/admission
	$(GO) tool pprof -top -nodecount 25 admission.test $(ADMISSION_PROF)

# profile-dataplane CPU-profiles the dataplane's two regimes on the
# sequential kernel and prints the top of each profile: a 32×32 sparse
# mesh (BenchmarkSparseCycleRate over experiments.SparseMesh — nearly
# every router idle or parked) and the loaded 8×8 mesh
# (BenchmarkRouterCycleRate over experiments.LoadedMesh — every router
# busy), the latter followed by the per-line view of Router.Tick and
# sampleInputs. A router hot-path change quotes both before and after
# (DESIGN §6). Leaves the two profiles and the test binary behind.
DATAPLANE_PROF ?= dataplane
profile-dataplane:
	$(GO) test -run '^$$' -bench '^BenchmarkSparseCycleRate$$' -benchtime 30000x -cpu 1 \
		-cpuprofile $(DATAPLANE_PROF)_sparse.prof -o dataplane.test .
	$(GO) tool pprof -top -nodecount 25 dataplane.test $(DATAPLANE_PROF)_sparse.prof
	$(GO) test -run '^$$' -bench '^BenchmarkRouterCycleRate$$/^workers=1$$' -benchtime 150000x -cpu 1 \
		-cpuprofile $(DATAPLANE_PROF)_loaded.prof -o dataplane.test .
	$(GO) tool pprof -top -nodecount 25 dataplane.test $(DATAPLANE_PROF)_loaded.prof
	$(GO) tool pprof -list 'Router..Tick$$|sampleInputs$$' dataplane.test $(DATAPLANE_PROF)_loaded.prof

# trace produces a sample Perfetto trace from the Figure 6 scenario
# (open $(TRACE_JSON) at https://ui.perfetto.dev, or chrome://tracing).
TRACE_JSON ?= trace.json
trace:
	$(GO) run ./cmd/rtsim -scenario scenarios/fig6.json -trace-out $(TRACE_JSON)

# loc prints, per package directory and in total, benchmark/ (its own
# module) excluded: non-test Go lines (`wc -l`), the non-blank,
# non-comment ones among them ("code" — the count ROADMAP item 6 gates
# internal/admission + internal/layout on), and test Go lines.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs awk ' \
		FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d); test = FILENAME ~ /_test\.go$$/; seen[d] = 1 } \
		test { t[d]++; next } \
		{ s[d]++ } !/^[ \t]*$$/ && !/^[ \t]*\/\// { c[d]++ } \
		END { for (d in seen) print d, s[d] + 0, c[d] + 0, t[d] + 0 }' | \
	awk '{ s[$$1] += $$2; c[$$1] += $$3; t[$$1] += $$4 } END { for (d in s) print d, s[d], c[d], t[d] }' | sort | \
	awk 'BEGIN { printf "%-28s %8s %8s %8s\n", "package", "non-test", "code", "test" } \
	     { printf "%-28s %8d %8d %8d\n", $$1, $$2, $$3, $$4; S += $$2; C += $$3; T += $$4 } \
	     END { printf "%-28s %8d %8d %8d\n", "total", S, C, T }'
