package topo

import (
	"fmt"
	"sort"
	"strconv"

	"musuite/internal/bench"
	"musuite/internal/core"
)

// The four μSuite benchmarks are spec kinds: a topology can place any of
// them as a node and the builder deploys the service's one definition
// (bench.Services) — the same dataset, cluster and query stream the
// experiment harness and the musuite binary get — sized by the node's
// shards/replicas/workers and its dataset params.  The kind's param
// allowlist is the definition's sizing table plus leaf-workers, so Validate
// rejects a typo'd param at parse time instead of silently running the
// default.  The golden-equivalence tests pin spec-driven deployments to the
// handwritten wiring: same responses, same TierStats shapes.

// paramLeafWorkers sizes each leaf's worker pool (default: the leaf's share
// of the cores, core.ShareCores).
const paramLeafWorkers = "leaf-workers"

// RegisteredKinds lists the benchmark kind names.
func RegisteredKinds() []string {
	names := make([]string, len(bench.Services))
	for i, svc := range bench.Services {
		names[i] = svc.Kind
	}
	sort.Strings(names)
	return names
}

// checkParams validates a service's params against its kind's sizing table
// (synthetic kinds accept none).
func checkParams(svc *ServiceSpec) error {
	if len(svc.Params) == 0 {
		return nil
	}
	def := bench.ServiceByKind(svc.Kind)
	if def == nil {
		return fmt.Errorf("topo: services.%s: kind %q accepts no params", svc.Name, svc.Kind)
	}
	allowed := map[string]bool{paramLeafWorkers: true}
	for _, p := range def.Params {
		allowed[p.Name] = true
	}
	for _, k := range sortedKeys(svc.Params) {
		if !allowed[k] {
			return fmt.Errorf("topo: services.%s.params: kind %q has no param %q", svc.Name, svc.Kind, k)
		}
	}
	return nil
}

// paramInt reads an integer param into dst, leaving dst alone when the spec
// does not set it.
func paramInt(svc *ServiceSpec, key string, dst *int) error {
	s, ok := svc.Params[key]
	if !ok || s == "" {
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("topo: services.%s.params.%s: invalid integer %q", svc.Name, key, s)
	}
	*dst = n
	return nil
}

// buildRegistered deploys a benchmark node: the node's params over
// SmallScale's sizes, its shape and the spec's seed become a bench.Scale,
// and the kind's definition starts it.
func buildRegistered(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*bench.Instance, error) {
	def := bench.ServiceByKind(svc.Kind)
	s := bench.SmallScale()
	for _, p := range def.Params {
		if err := paramInt(svc, p.Name, p.Field(&s)); err != nil {
			return nil, err
		}
	}
	leaf := core.LeafOptions{Probe: opts.Probe, Spans: opts.Spans}
	if err := paramInt(svc, paramLeafWorkers, &leaf.Workers); err != nil {
		return nil, err
	}
	s.Seed = spec.Seed
	s.Shards, s.LeafReplicas = svc.Shards, svc.Replicas
	s.RouterLeaves, s.RouterReplicas = svc.Shards, svc.Replicas
	return def.Start(s, opts.frontEnd(),
		core.Options{Workers: svc.Workers, Probe: opts.Probe, Spans: opts.Spans}, leaf)
}
