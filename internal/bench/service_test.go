package bench

import (
	"reflect"
	"testing"

	"musuite/internal/core"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
)

// tierStats queries a tier's stats over the wire, as an operator would.
func tierStats(t *testing.T, addr string) core.TierStats {
	t.Helper()
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := core.QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTierPerProcessEqualsInProcess is the equivalence anchor between the
// two deployment forms of one definition: leaves and a mid-tier assembled
// through the role path `musuite serve` takes — each piece prepared on its
// own from the Scale, as separate processes would, and started on its own
// port — must answer the service's query stream byte for byte as the
// in-process cluster StartCluster builds from the same Scale does, with
// tiers of the same role and size.
func TestTierPerProcessEqualsInProcess(t *testing.T) {
	s := tinyScale()
	s.Shards, s.RouterLeaves = 2, 2 // Router: as many leaves as the others have shards
	leafOpts, midOpts := core.LeafOptions{Workers: 2}, core.Options{Workers: 3}
	cases := []struct {
		svc  *Service
		mode FrameworkMode
	}{
		{ServiceByKind("hdsearch"), FrameworkMode{}},
		{ServiceByKind("hdsearch"), FrameworkMode{Index: hdsearch.IndexIVF}},
		{ServiceByKind("router"), FrameworkMode{}},
		{ServiceByKind("setalgebra"), FrameworkMode{}},
		{ServiceByKind("recommend"), FrameworkMode{}},
	}
	for _, tc := range cases {
		t.Run(tc.svc.Name+"/"+string(tc.mode.Index), func(t *testing.T) {
			var leafAddrs []string
			for shard := 0; shard < s.Shards; shard++ {
				leaf, err := tc.svc.Leaf(s, tc.mode, shard, leafOpts)
				if err != nil {
					t.Fatal(err)
				}
				addr, err := leaf.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer leaf.Close()
				leafAddrs = append(leafAddrs, addr)
			}
			mt, err := tc.svc.MidTier(s, tc.mode, leafAddrs, midOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()
			midAddr, err := mt.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			issue, closeClient, err := tc.svc.Workload(s, tc.mode, midAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer closeClient()

			ref, err := tc.svc.Start(s, tc.mode, midOpts, leafOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			if err := CompareReplies(issue, ref.Issue, 32); err != nil {
				t.Fatal(err)
			}
			refLeaves := ref.Cluster.MidTier().Topology().View().Groups
			if len(refLeaves) != len(leafAddrs) {
				t.Fatalf("%d leaf groups per process, %d in-process", len(leafAddrs), len(refLeaves))
			}
			pairs := [][2]string{{midAddr, ref.Addr}}
			for i, g := range refLeaves {
				pairs = append(pairs, [2]string{leafAddrs[i], g.Addrs[0]})
			}
			for _, p := range pairs {
				got, want := tierStats(t, p[0]), tierStats(t, p[1])
				if got.Role != want.Role || got.Workers != want.Workers {
					t.Errorf("tier %s: role %q workers %d; in-process %s: role %q workers %d",
						p[0], got.Role, got.Workers, p[1], want.Role, want.Workers)
				}
			}
		})
	}
}

// TestSizingTable pins the one sizing table's shape: within a service every
// name is distinct, and across the whole table every name addresses its own
// Scale field — writing through it changes that field and nothing else.
func TestSizingTable(t *testing.T) {
	fields := map[string]string{} // Scale field → "kind.name" that owns it
	for _, svc := range Services {
		if ServiceByKind(svc.Kind) != svc {
			t.Errorf("%s: ServiceByKind(%q) does not find it", svc.Name, svc.Kind)
		}
		names := map[string]bool{}
		for _, p := range svc.Params {
			if names[p.Name] {
				t.Errorf("%s: duplicate param %q", svc.Kind, p.Name)
			}
			names[p.Name] = true

			base := SmallScale()
			if *p.Field(&base) <= 0 {
				t.Errorf("%s.%s: SmallScale leaves it unset", svc.Kind, p.Name)
			}
			changed := base
			*p.Field(&changed) += 7
			var touched []string
			bv, cv := reflect.ValueOf(base), reflect.ValueOf(changed)
			for i := 0; i < bv.NumField(); i++ {
				if !reflect.DeepEqual(bv.Field(i).Interface(), cv.Field(i).Interface()) {
					touched = append(touched, bv.Type().Field(i).Name)
				}
			}
			if len(touched) != 1 {
				t.Fatalf("%s.%s: writing through Field changed Scale fields %v, want exactly one", svc.Kind, p.Name, touched)
			}
			owner := svc.Kind + "." + p.Name
			if prev, dup := fields[touched[0]]; dup {
				t.Errorf("%s and %s both address Scale.%s", prev, owner, touched[0])
			}
			fields[touched[0]] = owner
		}
	}
}
