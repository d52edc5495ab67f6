package topo

import (
	"fmt"
	"strings"
	"time"

	"musuite/internal/bench"
)

// Synthetic service kinds instantiable from a spec alone.  "synthetic" is a
// mid-tier running a declarative op program; the other three are leaf tiers
// modelling the common data-plane roles.
const (
	KindSynthetic = "synthetic"
	KindCompute   = "compute"
	KindCache     = "cache"
	KindStore     = "store"
)

// isLeafKind reports whether kind is a synthetic leaf tier.
func isLeafKind(kind string) bool {
	return kind == KindCompute || kind == KindCache || kind == KindStore
}

// isSyntheticKind reports whether kind is spec-defined rather than a
// registered benchmark.
func isSyntheticKind(kind string) bool {
	return kind == KindSynthetic || isLeafKind(kind)
}

// leafMethods lists each synthetic leaf kind's wire methods.
var leafMethods = map[string][]string{
	KindCompute: {"do"},
	KindCache:   {"get", "set"},
	KindStore:   {"get", "set"},
}

// Validate checks the spec's structural integrity: every reference
// resolves, the service graph is acyclic, kinds carry only the fields they
// understand, and every configured edge timeout covers its downstream's
// worst-case budget.  Build refuses unvalidated specs, so a bad spec fails
// at parse time, not as a hung deployment.
func (s *Spec) Validate() error {
	if len(s.Services) == 0 {
		return fmt.Errorf("topo: spec declares no services")
	}
	for _, name := range s.ServiceNames() {
		if err := s.validateService(s.Services[name]); err != nil {
			return err
		}
	}
	if s.Entry == "" {
		return fmt.Errorf("topo: spec: missing required field %q", "entry")
	}
	entry, ok := s.Services[s.Entry]
	if !ok {
		return fmt.Errorf("topo: entry: unknown service %q", s.Entry)
	}
	if isLeafKind(entry.Kind) {
		return fmt.Errorf("topo: entry %q: leaf kind %q cannot be the entry", s.Entry, entry.Kind)
	}
	if err := s.checkAcyclic(); err != nil {
		return err
	}
	if err := s.checkBudgets(); err != nil {
		return err
	}
	if err := s.validateLoad(entry); err != nil {
		return err
	}
	return s.validateScenario()
}

func (s *Spec) validateService(svc *ServiceSpec) error {
	if !isSyntheticKind(svc.Kind) && bench.ServiceByKind(svc.Kind) == nil {
		return fmt.Errorf("topo: services.%s: unknown kind %q", svc.Name, svc.Kind)
	}
	if err := checkParams(svc); err != nil {
		return err
	}
	if svc.Shards < 1 || svc.Replicas < 1 {
		return fmt.Errorf("topo: services.%s: shards and replicas must be ≥ 1", svc.Name)
	}
	if svc.HitRatio < 0 || svc.HitRatio > 1 {
		return fmt.Errorf("topo: services.%s: hit-ratio must be in [0,1]", svc.Name)
	}
	if svc.HitRatio > 0 && svc.Kind != KindCache {
		return fmt.Errorf("topo: services.%s: hit-ratio is only valid on kind %q", svc.Name, KindCache)
	}
	if svc.Kind != KindSynthetic {
		if len(svc.Edges) > 0 || len(svc.Ops) > 0 {
			return fmt.Errorf("topo: services.%s: edges/ops are only valid on kind %q", svc.Name, KindSynthetic)
		}
		if svc.MaxInflight > 0 && !isLeafKind(svc.Kind) {
			return fmt.Errorf("topo: services.%s: max-inflight is only valid on synthetic kinds", svc.Name)
		}
		return nil
	}
	if len(svc.Ops) == 0 {
		return fmt.Errorf("topo: services.%s: synthetic service declares no ops", svc.Name)
	}
	for _, en := range sortedKeys(svc.Edges) {
		e := svc.Edges[en]
		target, ok := s.Services[e.To]
		if !ok {
			return fmt.Errorf("topo: services.%s.edges.%s: unknown service %q", svc.Name, en, e.To)
		}
		if !isSyntheticKind(target.Kind) {
			return fmt.Errorf("topo: services.%s.edges.%s: target %q has registered kind %q, which cannot be called from a synthetic service", svc.Name, en, e.To, target.Kind)
		}
		if e.Tail.HedgePercentile < 0 || e.Tail.HedgePercentile >= 1 {
			return fmt.Errorf("topo: services.%s.edges.%s: hedge-pct must be in [0,1)", svc.Name, en)
		}
	}
	for _, on := range sortedKeys(svc.Ops) {
		if err := s.validateOp(svc, svc.Ops[on]); err != nil {
			return err
		}
	}
	return nil
}

func (s *Spec) validateOp(svc *ServiceSpec, op *OpSpec) error {
	path := fmt.Sprintf("services.%s.ops.%s", svc.Name, op.Name)
	for i, c := range op.Calls {
		cpath := fmt.Sprintf("%s.calls[%d]", path, i)
		edge, ok := svc.Edges[c.Edge]
		if !ok {
			return fmt.Errorf("topo: %s: unknown edge %q", cpath, c.Edge)
		}
		if err := s.checkMethod(cpath, edge, c.Method); err != nil {
			return err
		}
		if c.MissEdge != "" {
			if c.Method != "get" {
				return fmt.Errorf("topo: %s: miss-edge requires method \"get\"", cpath)
			}
			miss, ok := svc.Edges[c.MissEdge]
			if !ok {
				return fmt.Errorf("topo: %s: unknown miss-edge %q", cpath, c.MissEdge)
			}
			if err := s.checkMethod(cpath, miss, "get"); err != nil {
				return err
			}
		}
		if c.Fill && c.MissEdge == "" {
			return fmt.Errorf("topo: %s: fill requires miss-edge", cpath)
		}
		if c.Fill {
			if err := s.checkMethod(cpath, svc.Edges[c.Edge], "set"); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkMethod verifies the method exists on the edge's target.
func (s *Spec) checkMethod(path string, edge *EdgeSpec, method string) error {
	target := s.Services[edge.To]
	switch {
	case target.Kind == KindSynthetic:
		if _, ok := target.Ops[method]; !ok {
			return fmt.Errorf("topo: %s: service %q has no op %q", path, edge.To, method)
		}
	case isLeafKind(target.Kind):
		for _, m := range leafMethods[target.Kind] {
			if m == method {
				return nil
			}
		}
		return fmt.Errorf("topo: %s: kind %q has no method %q (valid: %s)",
			path, target.Kind, method, strings.Join(leafMethods[target.Kind], ", "))
	}
	return nil
}

// checkAcyclic rejects cycles in the service graph with a path-labelled
// error (a cyclic DAG would deadlock at build and at runtime).
func (s *Spec) checkAcyclic() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("topo: service cycle: %s", strings.Join(append(path, name), " -> "))
		}
		state[name] = visiting
		svc := s.Services[name]
		for _, en := range sortedKeys(svc.Edges) {
			if err := visit(svc.Edges[en].To, append(path, name)); err != nil {
				return err
			}
		}
		state[name] = done
		return nil
	}
	for _, name := range s.ServiceNames() {
		if err := visit(name, nil); err != nil {
			return err
		}
	}
	return nil
}

// checkBudgets verifies every configured edge timeout is at least its
// downstream's worst-case service time (work plus the downstream's own
// slowest op), so a spec cannot configure an edge that times out on every
// healthy request.
func (s *Spec) checkBudgets() error {
	memo := map[string]time.Duration{}
	var svcBudget func(name string) time.Duration
	var opBudget func(svc *ServiceSpec, op *OpSpec) time.Duration

	// callBudget is one call's worst-case time as seen by its caller: the
	// configured edge timeout caps it; otherwise it inherits the target's
	// budget.  A cache miss chain is sequential: probe + fetch + fill.
	callBudget := func(svc *ServiceSpec, c CallSpec) time.Duration {
		edgeCost := func(e *EdgeSpec) time.Duration {
			if e.Timeout > 0 {
				return e.Timeout
			}
			return svcBudget(e.To)
		}
		b := edgeCost(svc.Edges[c.Edge])
		if c.MissEdge != "" {
			b += edgeCost(svc.Edges[c.MissEdge])
			if c.Fill {
				b += edgeCost(svc.Edges[c.Edge])
			}
		}
		return b
	}

	opBudget = func(svc *ServiceSpec, op *OpSpec) time.Duration {
		total := op.Work
		stages := map[int]time.Duration{}
		for _, c := range op.Calls {
			if b := callBudget(svc, c); b > stages[c.Stage] {
				stages[c.Stage] = b
			}
		}
		for _, b := range stages {
			total += b
		}
		return total
	}

	svcBudget = func(name string) time.Duration {
		if b, ok := memo[name]; ok {
			return b
		}
		svc := s.Services[name]
		var b time.Duration
		switch {
		case svc.Kind == KindSynthetic:
			for _, on := range sortedKeys(svc.Ops) {
				if ob := opBudget(svc, svc.Ops[on]); ob > b {
					b = ob
				}
			}
		case isLeafKind(svc.Kind):
			b = svc.Work
		}
		memo[name] = b
		return b
	}

	for _, name := range s.ServiceNames() {
		svc := s.Services[name]
		for _, en := range sortedKeys(svc.Edges) {
			e := svc.Edges[en]
			if e.Timeout <= 0 {
				continue
			}
			if need := svcBudget(e.To); e.Timeout < need {
				return fmt.Errorf("topo: services.%s.edges.%s: timeout %v is below %q's worst-case budget %v — every healthy call would expire",
					name, en, e.Timeout, e.To, need)
			}
		}
	}
	return nil
}

func (s *Spec) validateLoad(entry *ServiceSpec) error {
	if len(s.Load.Mix) == 0 {
		return nil
	}
	if entry.Kind != KindSynthetic {
		return fmt.Errorf("topo: load.mix is only valid with a synthetic entry")
	}
	for op := range s.Load.Mix {
		if _, ok := entry.Ops[op]; !ok {
			return fmt.Errorf("topo: load.mix: entry %q has no op %q", entry.Name, op)
		}
	}
	return nil
}

func (s *Spec) validateScenario() error {
	for i, e := range s.Scenario {
		path := fmt.Sprintf("scenario[%d]", i)
		switch {
		case e.Target != "" && e.Edge != "":
			return fmt.Errorf("topo: %s: target and edge are mutually exclusive", path)
		case e.Target != "":
			svc, ok := s.Services[e.Target]
			if !ok {
				return fmt.Errorf("topo: %s: unknown service %q", path, e.Target)
			}
			if !isSyntheticKind(svc.Kind) {
				return fmt.Errorf("topo: %s: target %q is a registered kind; only synthetic services degrade", path, e.Target)
			}
			if e.Slow == 0 && e.ErrorRate == 0 {
				return fmt.Errorf("topo: %s: target event needs slow or error-rate", path)
			}
			if e.ErrorRate < 0 || e.ErrorRate > 1 {
				return fmt.Errorf("topo: %s: error-rate must be in [0,1]", path)
			}
		case e.Edge != "":
			svcName, edgeName, ok := strings.Cut(e.Edge, "/")
			if !ok {
				return fmt.Errorf("topo: %s: edge must be \"service/edge\", got %q", path, e.Edge)
			}
			svc, ok := s.Services[svcName]
			if !ok {
				return fmt.Errorf("topo: %s: unknown service %q", path, svcName)
			}
			if _, ok := svc.Edges[edgeName]; !ok {
				return fmt.Errorf("topo: %s: service %q has no edge %q", path, svcName, edgeName)
			}
			if e.Delay == 0 {
				return fmt.Errorf("topo: %s: edge event needs delay", path)
			}
		default:
			return fmt.Errorf("topo: %s: event needs target or edge", path)
		}
	}
	return nil
}
