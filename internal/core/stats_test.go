package core

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

// TestTierStatsRoundTrip: encode→decode is the identity over every field.
func TestTierStatsRoundTrip(t *testing.T) {
	roundTrip := func(in TierStats) bool {
		got, err := DecodeTierStats(encodeTierStats(in))
		if err != nil || got != in {
			t.Logf("got %+v (err %v)\nwant %+v", got, err, in)
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTierStatsRejectsTruncation: every strict prefix of a valid encoding is
// an error, never a silently zero-filled TierStats.
func TestTierStatsRejectsTruncation(t *testing.T) {
	var snap telemetry.Snapshot
	for c := range snap {
		snap[c] = uint64(c) << (c % 40) // one- to six-byte varints
	}
	in := TierStats{Role: "midtier", QueueDepth: 2, Workers: 4, Leaves: 16, HedgeDelay: time.Millisecond, AdmitLimit: 300}
	in.fillCounters(snap)
	full := encodeTierStats(in)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeTierStats(full[:cut]); err == nil {
			t.Fatalf("stats truncated to %d of %d bytes accepted", cut, len(full))
		}
	}
	if got, err := DecodeTierStats(full); err != nil || got != in {
		t.Fatalf("full encoding: got %+v (err %v), want %+v", got, err, in)
	}
}

// TestTierStatsFieldsReadTheirCounters: every tagged field names a real
// counter (checked when the package initializes) and reads exactly that slot,
// and no two fields read the same one.
func TestTierStatsFieldsReadTheirCounters(t *testing.T) {
	var snap telemetry.Snapshot
	for c := range snap {
		snap[c] = 1000 + uint64(c)
	}
	var st TierStats
	st.fillCounters(snap)
	v, seen := reflect.ValueOf(st), map[telemetry.Counter]string{}
	for i, c := range counterFields {
		name := v.Type().Field(i).Name
		if got := v.Field(i).Uint(); got != snap[c] {
			t.Errorf("%s = %d, want the %v slot (%d)", name, got, c, snap[c])
		}
		if prev, dup := seen[c]; dup {
			t.Errorf("%s and %s both read %v", prev, name, c)
		}
		seen[c] = name
	}
	if st.Served != snap[telemetry.TierServed] || st.KernelPoints != snap[telemetry.KernelPoints] {
		t.Errorf("Served=%d KernelPoints=%d read the wrong slots", st.Served, st.KernelPoints)
	}
}

func TestMidTierStatsEndpoint(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	addr, _ := startMidTier(t, []string{leafAddr}, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 15
	for i := 0; i < n; i++ {
		if _, err := c.Call("echo1", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "midtier" {
		t.Fatalf("role=%q", st.Role)
	}
	if st.Served != n {
		t.Fatalf("served=%d want %d", st.Served, n)
	}
	if st.Leaves != 1 || st.Workers != 4 || st.ResponseThreads != 2 {
		t.Fatalf("topology: %+v", st)
	}
	// Stats requests themselves are not counted as served work.
	st2, _ := QueryStats(c)
	if st2.Served != n {
		t.Fatalf("stats query counted as served: %d", st2.Served)
	}
}

func TestLeafStatsEndpoint(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	c, err := rpc.Dial(leafAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Call("echo", []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "leaf" || st.Served != 5 || st.Workers != 2 {
		t.Fatalf("leaf stats: %+v", st)
	}
}

func TestStatsReflectSheds(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	gate := make(chan struct{})
	mt := NewMidTier(func(ctx *Ctx) {
		<-gate
		ctx.Reply(nil)
	}, &Options{Workers: 1, Admit: AdmitPolicy{MaxInflight: 1}})
	if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One Write, so the first request goes to the worker and the poller
	// reads on: a lone first request would run on its poller and hold the
	// others back in the socket.
	conn := sendBurst(t, addr, []string{"q", "q", "q", "q", "q", "q"}, nil)
	// Stats remain answerable while the worker is saturated (served on the
	// poller, not dispatched, and never admitted or shed).
	waitFor(t, "the sheds", func() bool { return mt.Stats().ShedLimit == 5 })
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedLimit != 5 || st.Admitted != 1 || st.AdmitInflight != 1 {
		t.Fatalf("stats under overload: %+v", st)
	}
	close(gate)
	readReplies(t, conn, 6)
}
