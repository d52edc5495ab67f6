package bench

import (
	"fmt"
	"strings"
	"time"

	"musuite/internal/loadgen"
	"musuite/internal/services/router"
)

// Resize measures service latency while the leaf fleet resizes under
// steady load — the live-topology experiment.  One Router deployment is
// driven through four back-to-back open-loop windows:
//
//	steady  — baseline at the configured leaf count
//	add     — a new leaf node joins mid-window (graceful scale-out)
//	drain   — the newest leaf group drains mid-window (graceful scale-in)
//	post    — resized steady state, back at the original leaf count
//
// The acceptance bar is zero transport failures in every phase: a resize
// must be invisible to the client beyond a latency ripple.  Router is the
// subject service because its keys re-place on a resize without data
// movement — a get routed to a fresh shard misses (found=false) and a set
// re-establishes the key, so request errors measure the framework, not
// stale partitioning.  (The data-partitioned services — HDSearch, Set
// Algebra, Recommend — pin shard data at startup, so for them runtime
// add/drain is a failure drill rather than a resharding tool.)
type ResizePhase struct {
	// Phase names the window ("steady", "add", "drain", "post").
	Phase string
	// Leaves is the serving leaf count when the window closed.
	Leaves int
	// Epoch is the topology version when the window closed.
	Epoch uint64
	// Result is the window's open-loop measurement.
	Result loadgen.OpenLoopResult
}

// Resize runs the live-resize experiment against a Router deployment at the
// given offered load.  The topology mutation of the add and drain windows
// fires a third of the way in, so each window captures before/during/after.
func Resize(s Scale, mode FrameworkMode, qps float64) ([]ResizePhase, error) {
	// Router's canonical deployment and key stream, on the experiment's own
	// seed namespace (the key trace lands on Seed+500).
	rs := s
	rs.Seed += 300
	inst, err := StartService("Router", rs, mode)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	cl, issue := inst.Cluster.(*router.Cluster), inst.Issue

	topo := cl.MidTier().Topology()
	var out []ResizePhase
	runPhase := func(name string, mutate func() error) error {
		var mutErr error
		mutDone := make(chan struct{})
		if mutate == nil {
			close(mutDone)
		} else {
			go func() {
				defer close(mutDone)
				time.Sleep(s.Window / 3)
				mutErr = mutate()
			}()
		}
		res := loadgen.RunOpenLoop(issue, loadgen.OpenLoopConfig{
			QPS: qps, Duration: s.Window, Seed: s.Seed + 501 + int64(len(out)),
		})
		<-mutDone
		if mutErr != nil {
			return fmt.Errorf("bench: resize %s phase: %w", name, mutErr)
		}
		out = append(out, ResizePhase{
			Phase:  name,
			Leaves: cl.NumLeaves(),
			Epoch:  topo.Current().Epoch(),
			Result: res,
		})
		return nil
	}

	steps := []struct {
		name   string
		mutate func() error
	}{
		{"steady", nil},
		{"add", func() error {
			_, err := cl.AddLeaf()
			return err
		}},
		{"drain", func() error {
			// Drain the newest (highest-index) shard: under jump routing
			// that is the minimal-movement scale-in.
			return cl.DrainLeaf(cl.NumLeaves()-1, s.Window)
		}},
		{"post", nil},
	}
	for _, st := range steps {
		if err := runPhase(st.name, st.mutate); err != nil {
			return out, err
		}
	}
	return out, nil
}

// RenderResize formats the resize experiment.
func RenderResize(phases []ResizePhase, qps float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live resize under load (Router, %g QPS offered): add and drain a leaf mid-window\n", qps)
	fmt.Fprintf(&b, "  %-8s %-7s %-6s %-9s %-9s %-7s %-8s %-12s %-12s\n",
		"phase", "leaves", "epoch", "offered", "completed", "errors", "dropped", "p50", "p99")
	failures := uint64(0)
	for _, p := range phases {
		r := p.Result
		fmt.Fprintf(&b, "  %-8s %-7d %-6d %-9d %-9d %-7d %-8d %-12v %-12v\n",
			p.Phase, p.Leaves, p.Epoch, r.Offered, r.Completed, r.Errors, r.Dropped,
			r.Latency.Median, r.Latency.P99)
		failures += r.Errors + r.Dropped
	}
	if failures == 0 {
		b.WriteString("  (zero failed requests across every phase: the resize was invisible to clients)\n")
	} else {
		fmt.Fprintf(&b, "  (WARNING: %d failed requests — the resize leaked errors to clients)\n", failures)
	}
	return b.String()
}
