#!/usr/bin/env bash
# docfacts.sh checks that the code names the design documents mention
# still name code. It reads the inline code spans (`...`) of DESIGN.md,
# README.md and EXPERIMENTS.md, fenced blocks left out, and fails if any
# of these does not resolve:
#   - a Test…/Benchmark…/Fuzz…/Example… name: a func in a _test.go file
#     (in internal/pkg, when written pkg.TestX);
#   - an rt_* metric: a name in internal/metrics (rt_foo_*: a prefix of one);
#   - a pkg.Symbol of an internal package: a declaration in internal/pkg,
#     or a metric name of BENCHMARK.json (`layout.probes_per_request`);
#   - a camelCase identifier: a word somewhere in the Go sources.
# It prints one line per name that does not resolve. `make docfacts` runs
# it, and `make check` runs that.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find . -name '*.go' -not -path './.git/*' | sort >"$tmp/go"
# The sets a name resolves against, one "KIND NAME" per line.
{
	xargs grep -ohE '[A-Za-z_][A-Za-z0-9_]*' <"$tmp/go" | sort -u | sed 's/^/word /'
	grep -ohE 'rt_[a-z0-9_]+' $(ls internal/metrics/*.go | grep -v '_test\.go$') | sort -u | sed 's/^/metric /'
	grep -oE '"name": *"[a-z]+\.[a-z0-9_]+"' BENCHMARK.json | sed -E 's/.*"([^"]+)"$/decl \1/'
	# A declaration: a func or method, a type, var or const, or a name
	# opening a line of a grouped declaration or a struct.
	grep -oE '^(func (\([^)]*\) )?[A-Za-z_][A-Za-z0-9_]*|(type|var|const) [A-Za-z_][A-Za-z0-9_]*|	[A-Za-z_][A-Za-z0-9_]*)' \
		$(grep '^\./internal/' "$tmp/go") |
		sed -E 's#^\./internal/([^/]+)/[^:]*:(func (\([^)]*\) )?|type |var |const |	)?#decl \1.#'
	grep '_test\.go$' "$tmp/go" | xargs grep -oE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' |
		sed -E 's#^\./(internal/([^/]+)/)?[^:]*:func (.*)#test \3\ntest \2.\3#' | grep -v '^test \.'
} | sort -u >"$tmp/known"

pkgs=$(ls -d internal/*/ | xargs -n1 basename | paste -sd'|')

# One line per code span: FILE<TAB>SPAN. A span may run across lines
# inside one paragraph; a blank line or a fence closes it.
awk '
	function flush(   n, part, i) {
		n = split(para, part, "`")
		for (i = 2; i < n; i += 2) print FILENAME "\t" part[i]
		para = ""
	}
	FNR == 1 { flush(); fence = 0 }
	/^```/ { flush(); fence = !fence; next }
	fence { next }
	/^[ \t]*$/ { flush(); next }
	{ para = para " " $0 }
	END { flush() }
' DESIGN.md README.md EXPERIMENTS.md >"$tmp/spans"

awk -v pkgs="^($pkgs)[.]" -F'\t' '
	FILENAME == ARGV[1] { split($0, kv, " "); known[kv[1] " " kv[2]] = 1; if (kv[1] == "metric") metrics[kv[2]] = 1; next }
	function miss(name, why) { print $1 ": `" name "`: " why; bad = 1 }
	{
		span = $2
		n = 0
		# Every identifier, with the dotted path it starts (pkg.Symbol).
		while (match(span, /[A-Za-z_][A-Za-z0-9_]*([.][A-Za-z_][A-Za-z0-9_]*)*\*?/)) {
			before = RSTART > 1 ? substr(span, RSTART - 1, 1) : ""
			tok[++n] = substr(span, RSTART, RLENGTH)
			pre[n] = before
			span = substr(span, RSTART + RLENGTH)
		}
		for (i = 1; i <= n; i++) {
			t = tok[i]
			star = sub(/[*]$/, "", t)
			if (t ~ /^rt_/) {
				if (star) {
					ok = 0
					for (m in metrics) if (index(m, t) == 1) ok = 1
					if (!ok) miss(t "*", "no metric with that prefix in internal/metrics")
				} else if (!known["metric " t]) miss(t, "no such metric in internal/metrics")
				continue
			}
			m = split(t, part, ".")
			if (m > 1 && t ~ pkgs && pre[i] != "/") {
				q = part[1] "." part[2]
				if (part[2] ~ /^(Test|Benchmark|Fuzz|Example)[A-Z0-9_]/) {
					if (!known["test " q]) miss(q, "no such test func in internal/" part[1])
				} else if (!known["decl " q]) miss(q, "no such declaration in internal/" part[1])
			}
			for (j = 1; j <= m; j++) {
				w = part[j]
				if (w ~ /^(Test|Benchmark|Fuzz|Example)[A-Z0-9_]/) {
					if (!known["test " w]) miss(w, "no such test func")
				} else if (w ~ /[a-z][A-Z]/ && !known["word " w]) miss(w, "no such word in the Go sources")
			}
		}
	}
	END { exit bad }
' "$tmp/known" "$tmp/spans"
