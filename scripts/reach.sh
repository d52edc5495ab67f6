#!/usr/bin/env bash
# reach.sh — which statements the repository's own runs reach, which
# functions none of them reaches, and which knobs no code sets.
#
# It builds `musuite` and the benchmark with coverage (`go build -cover
# -coverpkg=musuite/...`), runs under GOCOVERDIR every step of ci.yml and
# nightly.yml that drives a built binary or script rather than `go test`,
# merges the data with `go tool covdata`, and prints:
#   1. each package's statement reach;
#   2. every function, exported or not, reached 0 %, with the non-test code
#      that calls it or names it as a value (census.go below).  A caller in
#      musuite.go is marked (facade), one under examples/ (example): the six
#      examples are callers, not runs, so an API only an example uses is
#      listed.  A function with no caller other than the facade and the
#      examples is marked UNCALLED.  Each line starts with the name's
#      category in scripts/reach-keep.txt, or NEW when the keep list lacks
#      it; a keep-list entry whose function no longer exists prints GONE;
#   3. every exported field of a struct named *Config, *Options or *Policy
#      that no non-test code sets: no composite-literal key or address taken
#      (a flag binding) anywhere, no assignment or increment outside the
#      field's own package (inside it, one is a default), and no `spec:` key
#      of a topology file under examples/.  This section reads source only.
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

# census.go type-checks every package of the module from source (non-test
# files only).  Given on stdin the "file:line Name" of every function reached
# 0 %, it prints each with the non-test code that names it (a method called
# through an interface its receiver implements counts too; a caller that sits
# in a function reached 0 % itself is marked (0 %)) and its keep-list
# category, then the keep list's GONE entries, then the knobs no code sets.
# It is written out here, into a temporary directory outside the module,
# rather than kept as a .go file, so that `make loc` and `go build ./...` see
# only the program.
helper=$(mktemp -d "${TMPDIR:-/tmp}/reach-census.XXXXXX")
trap 'rm -rf "$helper"' EXIT
cat >"$helper/census.go" <<'GO'
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
	"reflect"
	"regexp"
	"slices"
	"strings"
)

// categories are the reasons a function the runs never reach stays.
var categories = map[string]bool{
	"fault":      true, // an error or teardown path only an injected fault takes
	"platform":   true, // a fallback for a CPU without AVX2
	"reference":  true, // a simpler form a test pins a reached path against
	"instrument": true, // a counter or probe only tests (and nightly assertions) read
	"facade":     true, // the public API in musuite.go
	"example":    true, // what an examples/ program calls
	"fmt":        true, // a String method only fmt calls, through an interface
	"benchmarks": true, // code under benchmarks/, which only a benchmark change edits
	"flag":       true, // its caller runs only under a flag, experiment, spec value or knob no step sets
	"input":      true, // a branch only an input or load shape no census run sends takes
	"interface":  true, // a method only an interface needs; no path calls it through it
}

type loader struct {
	fset  *token.FileSet
	dirs  map[string]string   // import path → directory
	files map[string][]string // import path → non-test Go files
	info  *types.Info
	done  map[string]*types.Package
	std   types.Importer
	pkgs  map[*ast.File]*types.Package // every non-test file, with its package
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
	for _, f := range files {
		l.pkgs[f] = p
	}
	return p, err
}

type use struct {
	at    token.Pos
	fn    *types.Func
	iface *types.Interface // non-nil: the call names an interface's method
}

func main() {
	keepPath, examples := os.Args[1], os.Args[2]
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		panic(err)
	}
	root, _ := os.Getwd()
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, files: map[string][]string{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		done: map[string]*types.Package{}, pkgs: map[*ast.File]*types.Package{}}
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
	rel := func(pos token.Pos) (string, int) {
		p := l.fset.Position(pos)
		r, _ := filepath.Rel(root, p.Filename)
		return r, p.Line
	}
	at := func(pos token.Pos) string {
		file, line := rel(pos)
		return fmt.Sprintf("%s:%d", file, line)
	}

	funcs := map[string]*types.Func{} // "file:line Name" → its definition
	keys := map[string]bool{}         // "file:Name" of every function, the keep list's form
	for id, obj := range l.info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			funcs[at(id.Pos())+" "+id.Name] = fn
			file, _ := rel(id.Pos())
			keys[file+":"+qualified(fn)] = true
		}
	}
	keep := readKeep(keepPath)

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
				return at(fd.Name.Pos()) + " " + fd.Name.Name
			}
		}
		return ""
	}
	var targets []string
	unreached := map[string]bool{}
	for in := bufio.NewScanner(os.Stdin); in.Scan(); {
		unreached[in.Text()] = true
		targets = append(targets, in.Text())
	}

	fmt.Println("## functions reached 0 %, with their keep-list category and non-test callers")
	counts := map[string]int{}
	listed := map[string]bool{}
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
			c := at(u.at)
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
		pos := strings.Fields(t)[0]
		key := pos[:strings.LastIndex(pos, ":")] + ":" + qualified(fn)
		listed[key] = true
		cat := keep[key]
		if cat == "" {
			cat = "NEW"
		}
		counts[cat]++
		list := " none"
		if n := len(callers); n > 0 {
			list = " " + strings.Join(callers[:min(n, 6)], " ")
			if n > 6 {
				list += fmt.Sprintf(" +%d more", n-6)
			}
		}
		fmt.Printf("%-10s %s%s %s.%s  callers:%s\n", cat, mark, pos, fn.Pkg().Name(), qualified(fn), list)
	}
	var gone, reached []string
	for key := range keep {
		switch {
		case !keys[key]:
			gone = append(gone, key)
		case !listed[key]:
			reached = append(reached, key)
		}
	}
	slices.Sort(gone)
	slices.Sort(reached)
	for _, key := range gone {
		fmt.Printf("%-10s %s (in the keep list, defined nowhere)\n", "GONE", key)
	}
	fmt.Println()
	var cats []string
	for c := range counts {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	fmt.Printf("%d listed:", len(targets))
	for _, c := range cats {
		fmt.Printf(" %s %d,", c, counts[c])
	}
	fmt.Printf(" GONE %d\n", len(gone))
	if len(reached) > 0 {
		fmt.Printf("keep-list names these runs reached (%d): %s\n", len(reached), strings.Join(reached, " "))
	}

	fmt.Println()
	unset(l, at, specKeys(examples))
}

// qualified is a function's name as the keep list spells it: Name, or
// (T).Name / (*T).Name for a method.
func qualified(fn *types.Func) string {
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return fn.Name()
	}
	return "(" + types.TypeString(r.Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
}

// readKeep reads the keep list: "<category> <file>:<Name> <reason>" a line,
// blank lines and # comments ignored.
func readKeep(path string) map[string]string {
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	keep := map[string]string{}
	for i, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !categories[f[0]] || !strings.Contains(f[1], ":") {
			fmt.Fprintf(os.Stderr, "%s:%d: want \"<category> <file>:<Name> <reason>\" with a known category: %s\n", path, i+1, line)
			os.Exit(1)
		}
		if keep[f[1]] != "" {
			fmt.Fprintf(os.Stderr, "%s:%d: %s listed twice\n", path, i+1, f[1])
			os.Exit(1)
		}
		keep[f[1]] = f[0]
	}
	return keep
}

// specKeys collects every mapping key the topology files under dir use, in
// block and in flow ({to: db, timeout: 200ms}) style.
func specKeys(dir string) map[string]bool {
	key := regexp.MustCompile(`(?:^|[\s{,])([A-Za-z][A-Za-z0-9_-]*):(?:\s|$)`)
	keys := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join(dir, "*.yaml"))
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			panic(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line, _, _ = strings.Cut(line, "#")
			for _, m := range key.FindAllStringSubmatch(line, -1) {
				keys[m[1]] = true
			}
		}
	}
	return keys
}

// unset prints every exported field of a *Config, *Options or *Policy struct
// that no non-test code sets and no topology file names.  An assignment in
// the field's own package is a default (`if cfg.X <= 0 { cfg.X = 8 }`), not
// a setting.
func unset(l *loader, at func(token.Pos) string, spec map[string]bool) {
	set := map[*types.Var]bool{}
	mark := func(id *ast.Ident, from *types.Package) {
		if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != from {
			set[v] = true
		}
	}
	assigned := func(e ast.Expr, from *types.Package) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			mark(sel.Sel, from)
		}
	}
	for f, pkg := range l.pkgs {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id, nil)
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					mark(sel.Sel, nil)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs, pkg)
				}
			case *ast.IncDecStmt:
				assigned(n.X, pkg)
			}
			return true
		})
	}
	var fields []*types.Var
	owner := map[*types.Var]*types.TypeName{}
	total := 0
	for _, obj := range l.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || !(strings.HasSuffix(tn.Name(), "Config") ||
			strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Policy")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			v := st.Field(i)
			if !v.Exported() {
				continue
			}
			total++
			name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("spec"), ",")
			if set[v] || name != "" && spec[name] {
				continue
			}
			fields = append(fields, v)
			owner[v] = tn
		}
	}
	slices.SortFunc(fields, func(a, b *types.Var) int {
		pa, pb := l.fset.Position(a.Pos()), l.fset.Position(b.Pos())
		if c := strings.Compare(pa.Filename, pb.Filename); c != 0 {
			return c
		}
		return pa.Line - pb.Line
	})
	fmt.Printf("## Config/Options/Policy fields no non-test code sets (%d of %d exported fields)\n", len(fields), total)
	for _, v := range fields {
		fmt.Printf("  %s %s.%s.%s\n", at(v.Pos()), v.Pkg().Name(), owner[v].Name(), v.Name())
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
	go tool cover -func="$OUT/reach.out" |
		awk -F'[\t ]+' '$NF == "0.0%" { sub(/^musuite\//, "", $1); sub(/:$/, "", $1); print $1, $2 }' |
		CGO_ENABLED=0 go run "$helper/census.go" scripts/reach-keep.txt examples
	if ((${#failed[@]})); then
		echo
		echo "## steps that exited non-zero"
		printf '  %s\n' "${failed[@]}"
	fi
}
report | tee "$OUT/reach.txt"
