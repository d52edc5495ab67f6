package topo

import (
	"fmt"
	"strings"
	"testing"

	"musuite/internal/bench"
)

// TestKindParamsAreTheSizingTable: for every benchmark kind the params a
// spec may set are exactly the kind's rows of bench's sizing table plus
// leaf-workers — another kind's row is a typo like any other — and a node
// that sets none deploys SmallScale's sizes: it answers the kind's query
// stream exactly as the harness's own SmallScale deployment does.
func TestKindParamsAreTheSizingTable(t *testing.T) {
	every := map[string]bool{paramLeafWorkers: true}
	for _, def := range bench.Services {
		for _, p := range def.Params {
			every[p.Name] = true
		}
	}
	for _, def := range bench.Services {
		t.Run(def.Kind, func(t *testing.T) {
			own := map[string]bool{paramLeafWorkers: true}
			for _, p := range def.Params {
				own[p.Name] = true
			}
			for name := range every {
				err := checkParams(&ServiceSpec{Name: "x", Kind: def.Kind, Params: map[string]string{name: "1"}})
				if own[name] && err != nil {
					t.Errorf("param %q rejected: %v", name, err)
				}
				if !own[name] && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no param %q", name))) {
					t.Errorf("param %q of another kind: err = %v, want a no-param rejection", name, err)
				}
			}

			d := buildSpec(t, fmt.Sprintf("topology: defaults\nentry: x\nservices:\n  x:\n    kind: %s\n    shards: 2\n", def.Kind), BuildOptions{})
			s := bench.SmallScale()
			s.Shards, s.RouterLeaves, s.RouterReplicas = 2, 2, 1
			ref, err := bench.StartService(def.Name, s, bench.FrameworkMode{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if err := bench.CompareReplies(d.Service("x").issue.Issue, ref.Issue, 16); err != nil {
				t.Errorf("no-params node does not serve SmallScale sizes: %v", err)
			}
		})
	}
}
