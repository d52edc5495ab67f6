package bench

import (
	"strings"
	"testing"
	"time"

	"musuite/internal/cluster"
	"musuite/internal/core"
)

func TestResizeExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := tinyScale()
	s.Window = 400 * time.Millisecond
	phases, err := Resize(s, FrameworkMode{MidTier: core.Options{EdgePolicy: core.EdgePolicy{Routing: cluster.Jump{}}}}, 150)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"steady", "add", "drain", "post"}
	if len(phases) != len(names) {
		t.Fatalf("phases = %d, want %d", len(phases), len(names))
	}
	for i, p := range phases {
		if p.Phase != names[i] {
			t.Fatalf("phase %d named %q, want %q", i, p.Phase, names[i])
		}
		if p.Result.Completed == 0 {
			t.Fatalf("phase %q completed nothing", p.Phase)
		}
		// The acceptance bar: a resize must be invisible to clients.
		if p.Result.Errors != 0 || p.Result.Dropped != 0 {
			t.Fatalf("phase %q failed requests: %d errors, %d dropped",
				p.Phase, p.Result.Errors, p.Result.Dropped)
		}
	}
	if phases[1].Leaves != phases[0].Leaves+1 {
		t.Fatalf("add phase leaves = %d, want %d", phases[1].Leaves, phases[0].Leaves+1)
	}
	if phases[2].Leaves != phases[0].Leaves {
		t.Fatalf("drain phase leaves = %d, want back to %d", phases[2].Leaves, phases[0].Leaves)
	}
	if phases[2].Epoch <= phases[1].Epoch || phases[1].Epoch <= phases[0].Epoch {
		t.Fatalf("epochs did not advance: %d %d %d",
			phases[0].Epoch, phases[1].Epoch, phases[2].Epoch)
	}
	out := RenderResize(phases, 150)
	if !strings.Contains(out, "zero failed requests") {
		t.Fatalf("render missed the acceptance line:\n%s", out)
	}
}
