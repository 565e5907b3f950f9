GO ?= go

.PHONY: check build vet test fmt docfacts capacity admission layout ledger bench benchall profile-admission profile-dataplane trace loc identity

# check is the tier-1 gate: vet, build, race tests, formatting, the
# docs' code names, the capacity gate, and the layout-synthesis gate.
check: vet build test fmt docfacts capacity layout

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

# docfacts fails when DESIGN.md, README.md or EXPERIMENTS.md names a
# test, an rt_* metric, an internal pkg.Symbol or a camelCase identifier
# that the code no longer has.
docfacts:
	bash scripts/docfacts.sh

# capacity runs the capacity-probe campaign on a small mesh plus the
# admission audit byte-identity gate; it exits nonzero on a ledger
# conservation violation, an unexplained rejection, or an audit log
# that differs across worker counts.
capacity:
	$(GO) run ./cmd/rtbench -exp capacity -mesh 6 -scenario scenarios/faulty.json -cycles 35000

# admission runs the mass-admission throughput campaign: 100k-request
# uniform/hotspot/transpose sequences on a 16×16 mesh, timing the
# Reference controller (from-scratch EDF, no memos, same planner)
# against the incremental-EDF path in the same run, checking the two
# byte-identical, and churning teardown/re-admit of every third admitted
# channel against the ledger verifier. The speedup column is reported,
# not gated; the floor is the slowest family's incremental decisions/sec,
# serial and timed in this run, so it holds on any hardware.
admission:
	$(GO) run ./cmd/rtbench -exp admission -requests 100000 -min-admit-rate 20000

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
# paths, cycle rate sequential vs parallel on the loaded and the sparse
# mesh, scheduler selection, sort keys) with allocation reporting, the
# admission-path benchmarks with their allocs-per-admit ceiling
# (TestAdmitAllocs fails the run if the steady-state admit path starts
# allocating), then runs the scaling
# sweep — mesh size × worker count, printing the speedup table — and
# records machine-readable numbers (including allocs/cycle, GOMAXPROCS
# and NumCPU) in $(BENCH_JSON). The sweep goes on to 128×128, past
# rtbench's own default of 64×64: `rtbench -exp sweep -workers 1 -mesh 128
# -cycles 2000` peaked at 1.8 GiB resident (975 MB of heap in use, two
# meshes held at once) and took 21 minutes on 2 vCPUs.
BENCH_JSON ?= BENCH_router.json
bench:
	$(GO) test -run '^$$' -bench BenchmarkRouterTick -benchmem ./internal/router
	$(GO) test -run '^$$' -bench 'BenchmarkRouterCycleRate|BenchmarkSparseCycleRate|BenchmarkFig6SortKeys' -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkT4SchedulerThroughput -benchmem ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkAdmit$$|BenchmarkAdmitFill$$|BenchmarkAdmitChurn$$|BenchmarkLinkCheckCached$$' -benchmem ./internal/admission
	$(GO) test -run TestAdmitAllocs -count=1 ./internal/admission
	$(GO) run ./cmd/rtbench -exp sweep -mesh 8,16,32,64,128 -benchjson $(BENCH_JSON)

# benchall runs every benchmark, including the full experiment replays.
benchall:
	$(GO) test -bench=. -benchmem ./...

# profile-admission CPU-profiles the incremental admission path alone —
# the filling and the churning micro-benchmarks; `rtbench -exp admission`
# also times the Reference leg, which would drown it — and prints the
# top of the profile; then the layout search (BenchmarkSynthesize, a
# 768-request hot-spot stream on 16×16), its top and a per-line view of
# the repair loop and the EDF walks behind its probes. A hot-path change
# quotes this before and after in its change notes. Leaves
# $(ADMISSION_PROF), layout.prof and the two test binaries behind.
ADMISSION_PROF ?= admission.prof
profile-admission:
	$(GO) test -run '^$$' -bench 'BenchmarkAdmitFill$$|BenchmarkAdmitChurn$$' -benchtime 3s \
		-cpuprofile $(ADMISSION_PROF) -o admission.test ./internal/admission
	$(GO) tool pprof -top -nodecount 25 admission.test $(ADMISSION_PROF)
	$(GO) test -run '^$$' -bench '^BenchmarkSynthesize$$' -benchtime 3s \
		-cpuprofile layout.prof -o layout.test ./internal/layout
	$(GO) tool pprof -top -nodecount 25 layout.test layout.prof
	$(GO) tool pprof -list 'synth..repair$$|failReport$$|minSlack$$' layout.test layout.prof

# profile-dataplane CPU-profiles the dataplane's two regimes on the
# sequential kernel and prints the top of each profile: a 32×32 sparse
# mesh (BenchmarkSparseCycleRate over experiments.SparseMesh — nearly
# every router idle or parked, asleep on the kernel's wake list) and the
# loaded 8×8 mesh (BenchmarkRouterCycleRate over experiments.LoadedMesh —
# every router busy), each followed by a per-line view: the wake list's
# walk (walker.walk) and the busy routers' rest verdict and beat
# (Router.atRest, Router.schedBeat) on the sparse mesh, Router.Tick and
# sampleInputs on the loaded one. A router or kernel
# hot-path change quotes both before and after (CHANGES.md). Leaves the
# two profiles and the test binary behind.
DATAPLANE_PROF ?= dataplane
profile-dataplane:
	$(GO) test -run '^$$' -bench '^BenchmarkSparseCycleRate$$/^workers=1$$' -benchtime 300000x -cpu 1 \
		-cpuprofile $(DATAPLANE_PROF)_sparse.prof -o dataplane.test .
	$(GO) tool pprof -top -nodecount 25 dataplane.test $(DATAPLANE_PROF)_sparse.prof
	$(GO) tool pprof -list 'walker..walk$$|Router..atRest$$|Router..schedBeat$$' dataplane.test $(DATAPLANE_PROF)_sparse.prof
	$(GO) test -run '^$$' -bench '^BenchmarkRouterCycleRate$$/^workers=1$$' -benchtime 150000x -cpu 1 \
		-cpuprofile $(DATAPLANE_PROF)_loaded.prof -o dataplane.test .
	$(GO) tool pprof -top -nodecount 25 dataplane.test $(DATAPLANE_PROF)_loaded.prof
	$(GO) tool pprof -list 'Router..Tick$$|sampleInputs$$' dataplane.test $(DATAPLANE_PROF)_loaded.prof

# trace produces a sample Perfetto trace from the Figure 6 scenario
# (open $(TRACE_JSON) at https://ui.perfetto.dev, or chrome://tracing).
TRACE_JSON ?= trace.json
trace:
	$(GO) run ./cmd/rtsim -scenario scenarios/fig6.json -trace-out $(TRACE_JSON)

# identity checks that the working tree prints byte for byte what
# revision $(BASE) prints: rtbench -exp all, the forensics campaign on
# faulty.json and on fig6.json at link latency 4, the capacity campaign,
# rtsim's stdout and -metrics JSON on faulty, mixed and fig6 and on two
# flag-driven 4x4 runs, and rtchip. BASE is built from a `git archive` in
# a temp directory. Example:
# `make identity BASE=HEAD~1`.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	bash scripts/identity.sh $(BASE)

# loc prints, per package directory and in total, benchmark/ (its own
# module) excluded: non-test Go lines (`wc -l`), the non-blank,
# non-comment ones among them ("code" — the count a change that deletes
# code reports per package, before and after), and test Go lines.
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
