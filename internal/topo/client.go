package topo

import (
	"fmt"
	"sort"
	"sync/atomic"

	"musuite/internal/loadgen"
	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// LoadClient drives a deployment's entry service: a synthetic entry is
// driven with the generic keyed protocol over its declared ops (weighted
// by the spec's load mix), a registered entry with its own canonical
// workload.  Requests round-robin across entry replicas, and sampled
// requests carry a root span context so the whole DAG traces as one tree.
type LoadClient struct {
	clients []*rpc.Client
	ops     []string
	seed    uint64
	next    atomic.Uint64
	sampler *trace.Sampler
	issue   loadgen.IssueFunc
}

// NewLoadClient dials the deployment's entry service.
func (d *Deployment) NewLoadClient() (*LoadClient, error) {
	entry := d.Entry()
	lc := &LoadClient{seed: uint64(d.Spec.Seed), sampler: d.opts.frontEnd().Sampler()}
	if entry.issue != nil {
		lc.issue = entry.issue.Issue
		return lc, nil
	}
	clientOpts := d.opts.frontEnd().ClientOptions()
	for _, addr := range d.EntryAddrs() {
		c, err := rpc.Dial(addr, clientOpts)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("topo: dialing entry %s: %w", addr, err)
		}
		lc.clients = append(lc.clients, c)
	}
	lc.ops = expandMix(entry.Spec, d.Spec.Load.Mix)
	if len(lc.ops) == 0 {
		return nil, fmt.Errorf("topo: entry %q has no ops to drive", entry.Spec.Name)
	}
	return lc, nil
}

// expandMix turns op weights into a rotation list, so a deterministic
// counter realizes the mix exactly.
func expandMix(entry *ServiceSpec, mix map[string]int) []string {
	if len(mix) == 0 {
		return sortedKeys(entry.Ops)
	}
	names := make([]string, 0, len(mix))
	for op := range mix {
		names = append(names, op)
	}
	sort.Strings(names)
	var ops []string
	for _, op := range names {
		for i := 0; i < mix[op]; i++ {
			ops = append(ops, op)
		}
	}
	return ops
}

// Issue launches one request; it has the loadgen.IssueFunc shape.
func (lc *LoadClient) Issue(done chan *rpc.Call) *rpc.Call {
	if lc.issue != nil {
		return lc.issue(done)
	}
	i := lc.next.Add(1)
	op := lc.ops[i%uint64(len(lc.ops))]
	c := lc.clients[i%uint64(len(lc.clients))]
	payload := encodeSynthetic(splitmix64(lc.seed+i), 0)
	// An unsampled request's zero context makes GoSpan exactly Go.
	return c.GoSpan(op, payload, lc.sampler.Context(), nil, done)
}

// Close tears the client down (registered-entry clients are owned by the
// deployment and close with it).
func (lc *LoadClient) Close() {
	for _, c := range lc.clients {
		c.Close()
	}
	lc.clients = nil
}

// Load-shape defaults for specs that omit them.
const (
	defaultLoadQPS    = 200.0
	defaultLoadFactor = 4.0
	defaultLoadSteps  = 3
)

// LoadPhases expands a spec's load shape into loadgen phases: steady is a
// single phase, the patterned shapes reuse loadgen's diurnal staircase,
// flash-crowd spike, and burst square wave.
func LoadPhases(l LoadSpec) []loadgen.LoadPhase {
	qps := l.QPS
	if qps <= 0 {
		qps = defaultLoadQPS
	}
	dur := l.Duration
	if dur <= 0 {
		dur = 5e9 // 5s
	}
	factor := l.Factor
	if factor <= 1 {
		factor = defaultLoadFactor
	}
	switch l.Pattern {
	case PatternDiurnal:
		steps := l.Steps
		if steps < 1 {
			steps = defaultLoadSteps
		}
		return loadgen.Diurnal(qps, qps*factor, steps, dur)
	case PatternFlashCrowd:
		baseline := dur * 2 / 5
		return loadgen.FlashCrowd(qps, factor, baseline, dur-2*baseline)
	case PatternBurst:
		return loadgen.Burst(qps, factor, l.Period, l.Duty, dur)
	default:
		return []loadgen.LoadPhase{{Name: "steady", QPS: qps, Duration: dur}}
	}
}
