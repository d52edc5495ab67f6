#!/usr/bin/env bash
# reach.sh — which statements the repository's own runs reach, and which
# exported functions none of them reaches.
#
# It builds `musuite` and the benchmark with coverage (`go build -cover
# -coverpkg=musuite/...`), runs under GOCOVERDIR every step of ci.yml and
# nightly.yml that drives a built binary or script rather than `go test`,
# merges the data with `go tool covdata`, and prints:
#   1. each package's statement reach;
#   2. every exported function reached 0 %, with the non-test code that
#      calls it or names it as a value (callers.go below).  A caller in
#      musuite.go is marked (facade), one under examples/ (example): the six
#      examples are callers, not runs, so an API only an example uses is
#      listed.  A function with no caller other than the facade and the
#      examples is marked UNCALLED.
#
# A step that exits non-zero is reported and the census goes on: the gates
# judge themselves in CI, and a failed run still reached what it ran.
#
#   scripts/reach.sh [outdir]   # outdir defaults to a fresh temp dir
#
# Outputs in outdir: reach.txt (the report, also printed), reach.out (the
# merged profile in textfmt), logs/ (one log per step).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")}
BIN=$OUT/bin
COV=$OUT/covdata
LOGS=$OUT/logs
rm -rf "$BIN" "$COV" "$LOGS"
mkdir -p "$BIN" "$COV" "$LOGS"
echo "reach: writing to $OUT" >&2

# GOFLAGS also reaches the `go build` inside trace_smoke.sh, so the trace
# smoke's tiers are covered binaries too.
export GOFLAGS="-cover -coverpkg=musuite/..."
export GOCOVERDIR=$COV
go build -o "$BIN/musuite" ./cmd/musuite
go build -o "$BIN/benchmarks" ./benchmarks

failed=()
n=0
# step cmd... — run one census step, its output to its own log.
step() {
	n=$((n + 1))
	local log
	log=$(printf '%s/%02d.log' "$LOGS" "$n")
	echo "== step $n: $*" >&2
	if ! "$@" >"$log" 2>&1; then
		echo "reach: step $n exited non-zero (log $log)" >&2
		failed+=("$n: $*")
	fi
}

mu=$BIN/musuite
# ci.yml: bench-smoke (tableII, then each workload untraced and traced).
step "$mu" bench -experiment tableII
for w in router_get router_set setalgebra_fanout hdsearch_lsh; do
	for tr in 0 1; do
		step "$BIN/benchmarks" --workload "$w" --seconds 2 --trace "$tr"
	done
done
# ci.yml: overload-goodput, topo-smoke, scenario, e2e-trace-smoke.
step "$mu" bench -experiment overload -window 1s
step "$mu" topo -topo examples/social-network.yaml
step "$mu" topo -topo examples/hotel-reservation.yaml
step "$mu" bench -experiment scenario -topo examples/cascade.yaml
step env TRACE_SMOKE_DIR="$OUT/trace-smoke" ./scripts/trace_smoke.sh
# nightly.yml: the live resize and the index comparison.
step "$mu" bench -experiment resize -routing jump -window 2s -load 500
step "$mu" bench -experiment indexcmp -window 1s -recall-floor 0.90
# Every paper experiment once (`make` and CI run none of them whole).
step "$mu" bench -experiment all -window 1s

unset GOFLAGS GOCOVERDIR
go tool covdata textfmt -i="$COV" -o "$OUT/reach.out"

# callers.go reads the "file:line Name" of every function reached 0 % and
# prints each exported one with the non-test code that names it, found by
# type-checking every package of the module from source (a method called
# through an interface its receiver implements counts too).  A caller that
# sits in a function reached 0 % itself is marked (0 %).  It is written out
# here, into a temporary directory outside the module, rather than kept as a
# .go file, so that `make loc` and `go build ./...` see only the program.
helper=$(mktemp -d "${TMPDIR:-/tmp}/reach-callers.XXXXXX")
trap 'rm -rf "$helper"' EXIT
cat >"$helper/callers.go" <<'GO'
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

type loader struct {
	fset  *token.FileSet
	dirs  map[string]string   // import path → directory
	files map[string][]string // import path → non-test Go files
	info  *types.Info
	done  map[string]*types.Package
	std   types.Importer
	decls []*ast.FuncDecl
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range l.files[path] {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.decls = append(l.decls, fd)
			}
		}
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.done[path] = p
	return p, err
}

type use struct {
	at    token.Pos
	fn    *types.Func
	iface *types.Interface // non-nil: the call names an interface's method
}

func main() {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		panic(err)
	}
	root, _ := os.Getwd()
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, files: map[string][]string{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		done: map[string]*types.Package{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "\t", 3)
		l.dirs[f[0]], l.files[f[0]] = f[1], strings.Fields(f[2])
		paths = append(paths, f[0])
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			panic(err)
		}
	}
	rel := func(pos token.Pos) string {
		p := l.fset.Position(pos)
		r, _ := filepath.Rel(root, p.Filename)
		return fmt.Sprintf("%s:%d", r, p.Line)
	}
	funcs := map[string]*types.Func{} // "file:line Name" → its definition
	for id, obj := range l.info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			funcs[rel(id.Pos())+" "+id.Name] = fn
		}
	}
	uses := map[string][]use{} // by function name
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		u := use{at: id.Pos(), fn: fn.Origin()}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			u.iface = recv.Type().Underlying().(*types.Interface)
		}
		uses[fn.Name()] = append(uses[fn.Name()], u)
	}
	// enclosing names the function a use sits in, as the input names it.
	enclosing := func(pos token.Pos) string {
		for _, fd := range l.decls {
			if fd.Pos() <= pos && pos < fd.End() {
				return rel(fd.Name.Pos()) + " " + fd.Name.Name
			}
		}
		return ""
	}
	var targets []string
	unreached := map[string]bool{}
	for in := bufio.NewScanner(os.Stdin); in.Scan(); {
		unreached[in.Text()] = true
		if f := strings.Fields(in.Text()); ast.IsExported(f[1]) {
			targets = append(targets, in.Text())
		}
	}
	for _, t := range targets {
		fn := funcs[t]
		if fn == nil {
			fmt.Println("? ", t)
			continue
		}
		var recv types.Type
		if r := fn.Type().(*types.Signature).Recv(); r != nil {
			recv = r.Type()
		}
		var callers []string
		code := false
		for _, u := range uses[fn.Name()] {
			if u.iface == nil && u.fn != fn || u.iface != nil && (recv == nil || !implements(recv, u.iface)) {
				continue
			}
			c := rel(u.at)
			switch {
			case strings.HasPrefix(c, "musuite.go:"):
				c += "(facade)"
			case strings.HasPrefix(c, "examples/"):
				c += "(example)"
			default:
				code = true
			}
			if unreached[enclosing(u.at)] {
				c += "(0 %)"
			}
			if u.iface != nil {
				c += "(via " + types.TypeString(u.fn.Type().(*types.Signature).Recv().Type(), nil) + ")"
			}
			if !slices.Contains(callers, c) {
				callers = append(callers, c)
			}
		}
		slices.Sort(callers)
		mark := ""
		if !code {
			mark = "UNCALLED  "
		}
		name := fn.Name()
		if recv != nil {
			name = "(" + types.TypeString(recv, types.RelativeTo(fn.Pkg())) + ")." + name
		}
		list := " none"
		if n := len(callers); n > 0 {
			list = " " + strings.Join(callers[:min(n, 6)], " ")
			if n > 6 {
				list += fmt.Sprintf(" +%d more", n-6)
			}
		}
		fmt.Printf("%s%s %s.%s  callers:%s\n", mark, strings.Fields(t)[0], fn.Pkg().Name(), name, list)
	}
}

func implements(t types.Type, iface *types.Interface) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
	}
	return types.Implements(t, iface)
}
GO

report() {
	echo "# reach census at $(git rev-parse --short HEAD 2>/dev/null || echo '?')"
	echo
	echo "## statement reach per package"
	go tool covdata percent -i="$COV" |
		awk '{ sub(/^musuite\/?/, "", $1); if ($1 == "") $1 = "(root)"
		       printf "%7s  %s\n", ($3 ~ /%$/ ? $3 : "-"), $1 }' |
		sort -k2
	go tool cover -func="$OUT/reach.out" | awk '/^total:/ { printf "%7s  total\n", $NF }'
	echo
	echo "## exported functions reached 0 %, with their non-test callers"
	go tool cover -func="$OUT/reach.out" |
		awk -F'[\t ]+' '$NF == "0.0%" { sub(/^musuite\//, "", $1); sub(/:$/, "", $1); print $1, $2 }' |
		CGO_ENABLED=0 go run "$helper/callers.go"
	if ((${#failed[@]})); then
		echo
		echo "## steps that exited non-zero"
		printf '  %s\n' "${failed[@]}"
	fi
}
report | tee "$OUT/reach.txt"
