package topo

import (
	"fmt"

	"musuite/internal/bench"
	"musuite/internal/core"
	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// BuildOptions instruments a deployment.
type BuildOptions struct {
	// Spans, when set, wires distributed tracing through every tier: each
	// mid-tier records server and leaf-attempt spans, each leaf its server
	// spans, and the load client roots the tree — one connected trace no
	// matter how deep the spec's DAG is.
	Spans *trace.Recorder
	// SpanSample traces one in every SpanSample front-end requests when
	// Spans is set (values < 1 trace every request).
	SpanSample int
	// Probe receives telemetry from every tier; nil disables it.
	Probe *telemetry.Probe
}

// frontEnd is the load client's share of the instrumentation: the root span
// sampler and the recorder its connections report to.
func (o BuildOptions) frontEnd() bench.FrameworkMode {
	return bench.FrameworkMode{Spans: o.Spans, SpanSample: o.SpanSample}
}

// Service is one spec service's live instances.
type Service struct {
	// Spec is the service's definition.
	Spec *ServiceSpec
	// Groups lists the replica addresses serving each shard — what
	// upstream edges dial.
	Groups [][]string

	mids   []*core.MidTier
	leaves []*core.Leaf
	deg    *degrade
	issue  *bench.Instance
	closer []func()
}

// Stats snapshots every mid-tier instance of the service (synthetic
// mid-tiers and registered kinds; empty for leaf kinds).
func (s *Service) Stats() []core.TierStats {
	out := make([]core.TierStats, 0, len(s.mids))
	for _, m := range s.mids {
		out = append(out, m.Stats())
	}
	return out
}

// MidTiers exposes the service's mid-tier instances (introspection/tests).
func (s *Service) MidTiers() []*core.MidTier { return s.mids }

// Deployment is a running topology: every service built in dependency
// order and wired together over the core framework's named edges.
type Deployment struct {
	// Spec is the validated topology this deployment runs.
	Spec *Spec

	services   map[string]*Service
	injections map[string]*edgeDelay
	order      []string
	opts       BuildOptions
}

// Build instantiates the spec: services build in reverse-topological
// order (downstreams first, so every edge has addresses to dial), each
// synthetic mid-tier instance connects one named core edge per spec edge,
// and leaf tiers shard exactly like handwritten services do.
func Build(spec *Spec, opts BuildOptions) (*Deployment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{
		Spec:       spec,
		services:   map[string]*Service{},
		injections: map[string]*edgeDelay{},
		opts:       opts,
	}
	for _, name := range spec.ServiceNames() {
		svc := spec.Services[name]
		for _, en := range sortedKeys(svc.Edges) {
			d.injections[name+"/"+en] = &edgeDelay{}
		}
	}
	// Reverse-topological build via DFS (the spec is validated acyclic).
	var build func(name string) error
	build = func(name string) error {
		if _, done := d.services[name]; done {
			return nil
		}
		svc := spec.Services[name]
		for _, en := range sortedKeys(svc.Edges) {
			if err := build(svc.Edges[en].To); err != nil {
				return err
			}
		}
		s, err := d.buildService(svc)
		if err != nil {
			return err
		}
		d.services[name] = s
		d.order = append(d.order, name)
		return nil
	}
	for _, name := range spec.ServiceNames() {
		if err := build(name); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

func (d *Deployment) buildService(svc *ServiceSpec) (*Service, error) {
	switch {
	case isLeafKind(svc.Kind):
		return d.buildLeafService(svc)
	case svc.Kind == KindSynthetic:
		return d.buildSyntheticMid(svc)
	default:
		built, err := buildRegistered(d.Spec, svc, d.opts)
		if err != nil {
			return nil, fmt.Errorf("topo: building %s: %w", svc.Name, err)
		}
		return &Service{Spec: svc, Groups: [][]string{{built.Addr}}, mids: []*core.MidTier{built.Cluster.MidTier()}, issue: built, closer: []func(){built.Close}}, nil
	}
}

// buildLeafService starts Shards×Replicas synthetic leaf instances.
func (d *Deployment) buildLeafService(svc *ServiceSpec) (*Service, error) {
	s := &Service{Spec: svc, deg: &degrade{}}
	opts := &core.LeafOptions{
		Workers: svc.Workers,
		Probe:   d.opts.Probe,
		Spans:   d.opts.Spans,
	}
	leaves, groups, err := core.StartLeaves(svc.Shards, svc.Replicas, opts, func(_ int, opts *core.LeafOptions) (*core.Leaf, error) {
		return newSyntheticLeaf(svc, s.deg, opts)
	})
	if err != nil {
		return nil, fmt.Errorf("topo: starting %s leaves: %w", svc.Name, err)
	}
	s.leaves, s.Groups = leaves, groups
	for _, leaf := range leaves {
		s.closer = append(s.closer, leaf.Close)
	}
	return s, nil
}

// buildSyntheticMid starts Shards×Replicas mid-tier instances running the
// service's compiled op program, each with one connected core edge per
// spec edge.
func (d *Deployment) buildSyntheticMid(svc *ServiceSpec) (*Service, error) {
	s := &Service{Spec: svc, deg: &degrade{}}
	delays := map[string]*edgeDelay{}
	for _, en := range sortedKeys(svc.Edges) {
		delays[en] = d.injections[svc.Name+"/"+en]
	}
	node := newSvcNode(d.Spec, svc, s.deg, delays)
	for shard := 0; shard < svc.Shards; shard++ {
		var group []string
		for r := 0; r < svc.Replicas; r++ {
			opts := &core.Options{
				Workers: svc.Workers,
				Probe:   d.opts.Probe,
				Spans:   d.opts.Spans,
			}
			if svc.MaxInflight > 0 {
				opts.Admit = core.AdmitPolicy{MaxInflight: svc.MaxInflight}
			}
			mt := core.NewMidTier(node.handler, opts)
			for _, en := range sortedKeys(svc.Edges) {
				e := svc.Edges[en]
				target := d.services[e.To]
				if err := mt.ConnectEdge(en, target.Groups, e.EdgePolicy); err != nil {
					mt.Close()
					s.close()
					return nil, fmt.Errorf("topo: wiring %s.%s: %w", svc.Name, en, err)
				}
			}
			addr, err := mt.Start("127.0.0.1:0")
			if err != nil {
				mt.Close()
				s.close()
				return nil, fmt.Errorf("topo: starting %s: %w", svc.Name, err)
			}
			s.mids = append(s.mids, mt)
			s.closer = append(s.closer, mt.Close)
			group = append(group, addr)
		}
		s.Groups = append(s.Groups, group)
	}
	return s, nil
}

// Service looks up a built service by name (nil if absent).
func (d *Deployment) Service(name string) *Service { return d.services[name] }

// Entry is the spec's entry service.
func (d *Deployment) Entry() *Service { return d.services[d.Spec.Entry] }

// EntryAddrs flattens the entry service's shard groups into the address
// list a front-end client dials.
func (d *Deployment) EntryAddrs() []string {
	var addrs []string
	for _, g := range d.Entry().Groups {
		addrs = append(addrs, g...)
	}
	return addrs
}

// Close tears the deployment down, upstreams first so no tier serves
// requests whose downstreams are already gone.
func (d *Deployment) Close() {
	for i := len(d.order) - 1; i >= 0; i-- {
		d.services[d.order[i]].close()
	}
	d.order = nil
}

func (s *Service) close() {
	for i := len(s.closer) - 1; i >= 0; i-- {
		s.closer[i]()
	}
	s.closer = nil
}
