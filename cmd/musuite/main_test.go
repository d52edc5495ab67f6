package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"musuite/internal/bench"
)

// TestSizingFlagsAreTheTable: `musuite serve <svc>` and `musuite load <svc>`
// get exactly the service's rows of the sizing table (plus -seed) as sizing
// flags, defaulting to SmallScale; the subcommands' own flags collide with
// none of them (a collision would panic at registration); and the README's
// sizing rows are the same names, defaults and descriptions.
func TestSizingFlagsAreTheTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.SmallScale()
	for _, svc := range bench.Services {
		for _, cmd := range []string{"serve", "load"} {
			_, fs, _, err := serviceFlags(cmd, []string{svc.Kind})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"seed": fmt.Sprint(small.Seed)}
			for _, p := range svc.Params {
				want[p.Name] = fmt.Sprint(*p.Field(&small))
			}
			fs.VisitAll(func(f *flag.Flag) {
				if def, ok := want[f.Name]; !ok || def != f.DefValue {
					t.Errorf("%s %s: flag -%s default %q, sizing table says %q (listed: %v)", cmd, svc.Kind, f.Name, f.DefValue, def, ok)
				}
				delete(want, f.Name)
			})
			if len(want) > 0 {
				t.Errorf("%s %s: sizing rows without a flag: %v", cmd, svc.Kind, want)
			}
		}
		// Registering the full flag sets must not collide with a sizing row;
		// both return before starting anything.
		if err := serve([]string{svc.Kind, "-role", "none"}); err == nil || !strings.Contains(err.Error(), "-role") {
			t.Errorf("serve %s -role none: %v", svc.Kind, err)
		}
		if err := load([]string{svc.Kind}); err == nil || !strings.Contains(err.Error(), "-target") {
			t.Errorf("load %s without -target: %v", svc.Kind, err)
		}
		for _, p := range svc.Params {
			row := fmt.Sprintf("| `-%s` | %d | %s: %s |", p.Name, *p.Field(&small), svc.Kind, p.Help)
			if !strings.Contains(string(readme), row) {
				t.Errorf("README.md lacks the sizing row %q", row)
			}
		}
	}
	if _, _, _, err := serviceFlags("serve", []string{"hdsaerch"}); err == nil {
		t.Error("unknown service accepted")
	}
}
