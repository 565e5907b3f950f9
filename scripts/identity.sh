#!/usr/bin/env bash
# identity.sh BASE builds rtbench, rtsim and rtchip at git revision BASE (from a
# `git archive`, so no worktree and no network) and in the working tree,
# runs the byte-identity list below with both builds on the working
# tree's scenario files, and compares each pair of outputs with cmp. It
# exits non-zero at the first difference. `make identity BASE=<rev>` runs
# it; a change meant to preserve behaviour runs it against its parent.
set -euo pipefail

base=${1:?usage: identity.sh BASE}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/" ./cmd/rtbench ./cmd/rtsim ./cmd/rtchip)
(cd "$root" && go build -o "$tmp/work/" ./cmd/rtbench ./cmd/rtsim ./cmd/rtchip)

# record FILE CMD... runs CMD from the repository root and writes its
# stdout and stderr, then its exit status, to FILE.
record() {
	local f=$1
	shift
	local rc=0
	(cd "$root" && "$@") >"$f" 2>&1 || rc=$?
	echo "exit $rc" >>"$f"
}

for side in base work; do
	b=$tmp/$side
	mkdir -p "$b/out"
	record "$b/out/all" "$b/rtbench" -exp all
	record "$b/out/forensics_faulty" "$b/rtbench" -exp forensics -scenario scenarios/faulty.json -cycles 30000
	record "$b/out/forensics_fig6" "$b/rtbench" -exp forensics -scenario scenarios/fig6.json -cycles 10000 -link-latency 4
	record "$b/out/capacity" "$b/rtbench" -exp capacity -mesh 6 -scenario scenarios/faulty.json -cycles 35000
	for s in faulty mixed fig6; do
		record "$b/out/rtsim_$s" "$b/rtsim" -scenario "scenarios/$s.json" -metrics "$b/out/rtsim_$s.metrics.json"
		# The report line names the -metrics path, which differs by side.
		sed -i "s|$b/out/||" "$b/out/rtsim_$s"
	done
	# The flag-driven workload, with and without admission horizons.
	record "$b/out/rtsim_mesh" "$b/rtsim" -mesh 4x4 -cycles 20000 -links -admit-report -explain \
		-metrics "$b/out/rtsim_mesh.metrics.json"
	sed -i "s|$b/out/||" "$b/out/rtsim_mesh"
	record "$b/out/rtsim_mesh_vct" "$b/rtsim" -mesh 4x4 -cycles 8000 -window 0 -horizon 0 -vct -admit-report
	record "$b/out/rtchip" "$b/rtchip"
done

for f in "$tmp/work/out"/*; do
	name=$(basename "$f")
	if ! cmp "$tmp/base/out/$name" "$f"; then
		echo "identity: $name differs from $base" >&2
		diff "$tmp/base/out/$name" "$f" | head -20 >&2 || true
		exit 1
	fi
done
echo "identity: $(ls "$tmp/work/out" | wc -l) outputs byte-identical to $base"
