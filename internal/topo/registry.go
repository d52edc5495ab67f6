package topo

import (
	"fmt"
	"sort"

	"musuite/internal/core"
	"musuite/internal/loadgen"
)

// The kind registry maps spec kind names to builders for the registered
// benchmark services — full deployments (mid-tier plus leaves) that a spec
// places as one node.  Registration carries the kind's parameter allowlist
// so Validate can reject a typo'd param at parse time instead of silently
// running the default.

// RegisteredService is a registered kind's built deployment: the shard
// groups upstream edges dial (for registered kinds, the single mid-tier
// address), the workload issuer driving the service's canonical query
// stream, and teardown.
type RegisteredService struct {
	// Groups lists replica addresses per shard for upstream dialing.
	Groups [][]string
	// MidTier is the deployment's mid-tier, for Service.Stats/MidTiers.
	MidTier *core.MidTier
	// Issue launches one request of the service's canonical workload.
	Issue loadgen.IssueFunc
	// Closers tear the deployment down, last first.
	Closers []func()
}

type registeredBuilder func(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*RegisteredService, error)

type registration struct {
	build  registeredBuilder
	params map[string]bool
}

var registry = map[string]*registration{}

// registerKind installs a builder for a registered kind; called from this
// package's init functions only.
func registerKind(name string, params []string, build registeredBuilder) {
	allowed := map[string]bool{}
	for _, p := range params {
		allowed[p] = true
	}
	registry[name] = &registration{build: build, params: allowed}
}

// registeredKind reports whether kind names a registered benchmark.
func registeredKind(kind string) bool {
	_, ok := registry[kind]
	return ok
}

// RegisteredKinds lists the registered kind names.
func RegisteredKinds() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkParams validates a service's params against its kind's allowlist
// (synthetic kinds accept none).
func checkParams(svc *ServiceSpec) error {
	if len(svc.Params) == 0 {
		return nil
	}
	reg := registry[svc.Kind]
	if reg == nil {
		return fmt.Errorf("topo: services.%s: kind %q accepts no params", svc.Name, svc.Kind)
	}
	for _, k := range sortedParamNames(svc.Params) {
		if !reg.params[k] {
			return fmt.Errorf("topo: services.%s.params: kind %q has no param %q", svc.Name, svc.Kind, k)
		}
	}
	return nil
}

func sortedParamNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// paramInt reads an integer param with a default.
func paramInt(svc *ServiceSpec, key string, def int) (int, error) {
	s, ok := svc.Params[key]
	if !ok || s == "" {
		return def, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return 0, fmt.Errorf("topo: services.%s.params.%s: invalid integer %q", svc.Name, key, s)
	}
	return n, nil
}
