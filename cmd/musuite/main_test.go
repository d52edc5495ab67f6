package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"musuite/internal/bench"
)

// flagSets returns every flag set the binary can present: one per subcommand,
// and one per service for the two that take a <service> argument.  Each body
// registers all its flags before it parses, so "-h" on a set that does not
// exit returns flag.ErrHelp with the set fully populated and nothing run.
func flagSets(t *testing.T) map[string]*flag.FlagSet {
	t.Helper()
	sets := map[string]*flag.FlagSet{}
	for name, run := range commands {
		argv := [][]string{{"-h"}}
		if name == "serve" || name == "load" {
			argv = nil
			for _, svc := range bench.Services {
				argv = append(argv, []string{svc.Kind, "-h"})
			}
		}
		for _, args := range argv {
			label := strings.TrimSuffix(name+" "+args[0], " -h")
			fs := flag.NewFlagSet(label, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if err := run(fs, args); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("musuite %s -h: %v, want flag.ErrHelp", label, err)
			}
			sets[label] = fs
		}
	}
	return sets
}

// TestEveryFlagIsDeclaredOnce: a name two flag sets share must be the same
// declaration — one usage string, one default — which is what registering it
// through one call site (serviceFlags, a cmdutil group) gives and what two
// hand-written copies drift out of.  A collision inside one set would have
// panicked at registration.
func TestEveryFlagIsDeclaredOnce(t *testing.T) {
	type decl struct{ set, usage, def string }
	seen := map[string]decl{}
	for label, fs := range flagSets(t) {
		fs.VisitAll(func(f *flag.Flag) {
			prev, ok := seen[f.Name]
			if !ok {
				seen[f.Name] = decl{label, f.Usage, f.DefValue}
			} else if prev.usage != f.Usage || prev.def != f.DefValue {
				t.Errorf("-%s is declared twice: %q has %q (default %q), %q has %q (default %q)",
					f.Name, prev.set, prev.usage, prev.def, label, f.Usage, f.DefValue)
			}
		})
	}
}

// TestReadmeFlagTablesAreTheFlags: every registered flag has a row in one of
// README's flag tables, every row names a registered flag, and a row states
// the registered default wherever that is not the type's zero.
func TestReadmeFlagTablesAreTheFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // flag name → the row's default cell
	row := regexp.MustCompile("(?m)^\\| `-([a-z][a-z0-9-]*)[^`]*` \\| ([^|]*) \\|")
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]] = strings.Trim(m[2], "` ")
	}
	zero := map[string]bool{"": true, "0": true, "0s": true, "false": true}
	registered := map[string]bool{}
	for label, fs := range flagSets(t) {
		fs.VisitAll(func(f *flag.Flag) {
			registered[f.Name] = true
			def, ok := rows[f.Name]
			if !ok {
				t.Errorf("musuite %s: -%s has no row in README's flag tables", label, f.Name)
			} else if !zero[f.DefValue] && !strings.HasPrefix(def, f.DefValue) {
				t.Errorf("musuite %s: -%s defaults to %q, README says %q", label, f.Name, f.DefValue, def)
			}
		})
	}
	for name := range rows {
		if !registered[name] {
			t.Errorf("README has a flag-table row for -%s, which no subcommand registers", name)
		}
	}
}

// TestReadmeMakeListIsTheMakefile: README's `make a | b | …` list names
// exactly the Makefile's phony targets, less the `ci` aggregate.
func TestReadmeMakeListIsTheMakefile(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	list := regexp.MustCompile("`make ([a-z-]+(?:\\s*\\|\\s*[a-z-]+)+)`").FindSubmatch(readme)
	if phony == nil || list == nil {
		t.Fatalf("no .PHONY line in Makefile (%v) or no `make a | b` list in README (%v)", phony != nil, list != nil)
	}
	var want []string
	for _, target := range strings.Fields(string(phony[1])) {
		if target != "ci" {
			want = append(want, target)
		}
	}
	got := strings.FieldsFunc(string(list[1]), func(r rune) bool { return r == '|' || unicode.IsSpace(r) })
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("README's make list is %v, the Makefile's phony targets (less ci) are %v", got, want)
	}
}

// TestSizingFlagsAreTheTable: `musuite serve <svc>` and `musuite load <svc>`
// get exactly the service's rows of the sizing table (plus -seed and -shards)
// from serviceFlags, defaulting to SmallScale, and the README's sizing rows
// are the same names, defaults and descriptions.
func TestSizingFlagsAreTheTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.SmallScale()
	for _, svc := range bench.Services {
		fs := flag.NewFlagSet(svc.Kind, flag.ContinueOnError)
		if _, _, err := serviceFlags(fs, []string{svc.Kind}); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"seed": fmt.Sprint(small.Seed), "shards": fmt.Sprint(small.Shards)}
		for _, p := range svc.Params {
			want[p.Name] = fmt.Sprint(*p.Field(&small))
		}
		fs.VisitAll(func(f *flag.Flag) {
			if def, ok := want[f.Name]; !ok || def != f.DefValue {
				t.Errorf("%s: flag -%s default %q, sizing table says %q (listed: %v)", svc.Kind, f.Name, f.DefValue, def, ok)
			}
			delete(want, f.Name)
		})
		if len(want) > 0 {
			t.Errorf("%s: sizing rows without a flag: %v", svc.Kind, want)
		}
		for _, p := range svc.Params {
			row := fmt.Sprintf("| `-%s` | %d | %s: %s |", p.Name, *p.Field(&small), svc.Kind, p.Help)
			if !strings.Contains(string(readme), row) {
				t.Errorf("README.md lacks the sizing row %q", row)
			}
		}
	}
	if _, _, err := serviceFlags(flag.NewFlagSet("t", flag.ContinueOnError), []string{"hdsaerch"}); err == nil {
		t.Error("unknown service accepted")
	}
}

// TestSubcommandsRun: the two subcommands that used to be binaries of their
// own (bench, trace) each complete their smallest job, and the two that start
// servers refuse bad arguments before starting anything — so the fold cannot
// drop one silently.
func TestSubcommandsRun(t *testing.T) {
	// A front-end client span and the leaf's server span under it.
	spans := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(spans, []byte(`{"trace":"00000000000000aa","span":"0000000000000001","name":"router.get","kind":"client","svc":"loadgen","start":1000,"dur":5000}
{"trace":"00000000000000aa","span":"0000000000000002","parent":"0000000000000001","name":"router.get","kind":"server","svc":"leaf","start":2000,"dur":3000}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		cmd  string
		args []string
		err  string // "" = must succeed
	}{
		{"bench", []string{"-experiment", "tableII"}, ""},
		{"trace", []string{"-check", "-min-traces", "1", spans}, ""},
		{"trace", []string{"-check", "-min-traces", "2", spans}, "connected traces"},
		{"serve", []string{"router", "-role", "none"}, "-role"},
		{"load", []string{"router"}, "-target"},
		{"topo", nil, "-topo"},
	} {
		fs := flag.NewFlagSet(c.cmd, flag.ContinueOnError)
		err := commands[c.cmd](fs, c.args)
		if c.err == "" && err != nil {
			t.Errorf("musuite %s %v: %v", c.cmd, c.args, err)
		} else if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("musuite %s %v: %v, want an error naming %q", c.cmd, c.args, err, c.err)
		}
	}
	// Fig. 9 is the experiment that turns BatchPolicy.MaxBatch (no flag does):
	// it must deploy and saturate a service under both of its modes.
	scale := bench.SmallScale()
	scale.SaturationWindow, scale.MaxConcurrency = 50*time.Millisecond, 4
	if err := run("fig9", scale, bench.FrameworkMode{}, []string{"Router"}, 0, 0); err != nil {
		t.Errorf("musuite bench -experiment fig9: %v", err)
	}
}
