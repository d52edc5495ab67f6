package core

import (
	"testing"

	"musuite/internal/telemetry"
)

func TestRetryBudgetSpendsDownToZero(t *testing.T) {
	tab := telemetry.NewTable(nil)
	b := newRetryBudget(0.1, 5, tab)
	for i := 0; i < 5; i++ {
		if !b.spend(telemetry.TailHedge) {
			t.Fatalf("spend %d denied with a full bucket", i)
		}
	}
	if b.spend(telemetry.TailRetry) {
		t.Fatal("spend allowed on an empty bucket")
	}
	// Every outcome is booked: five hedges, and the denial — not the retry
	// it refused.
	var want telemetry.Snapshot
	want[telemetry.TailHedge], want[telemetry.TailBudgetDenied] = 5, 1
	if got := tab.Snapshot(); got != want {
		t.Fatalf("budget counters %v, want 5 hedges and 1 denial", got)
	}
}

func TestRetryBudgetEarnsFractionalTokens(t *testing.T) {
	// 0.25 is exactly representable, so the arithmetic is deterministic.
	b := newRetryBudget(0.25, 5, nil)
	for i := 0; i < 5; i++ {
		b.spend(telemetry.TailHedge)
	}
	// 3 primaries earn 0.75 tokens — still not enough for one hedge.
	for i := 0; i < 3; i++ {
		b.earn()
	}
	if b.spend(telemetry.TailHedge) {
		t.Fatal("spend allowed with only 0.75 tokens banked")
	}
	b.earn()
	if !b.spend(telemetry.TailHedge) {
		t.Fatal("spend denied after earning a whole token")
	}
	if b.spend(telemetry.TailHedge) {
		t.Fatal("second spend allowed after banking exactly one token")
	}
}

func TestRetryBudgetCapsAtBurst(t *testing.T) {
	b := newRetryBudget(0.5, 3, nil)
	// Long idle-earning period must not bank unbounded credit.
	for i := 0; i < 1000; i++ {
		b.earn()
	}
	spent := 0
	for b.spend(telemetry.TailHedge) {
		spent++
	}
	if spent != 3 {
		t.Fatalf("spent %d tokens after capped earning, want burst=3", spent)
	}
}

func TestRetryBudgetDefaults(t *testing.T) {
	b := newRetryBudget(0, 0, nil)
	if b.ratio != DefaultRetryBudgetRatio || b.burst != float64(DefaultRetryBudgetBurst) {
		t.Fatalf("defaults not applied: ratio=%v burst=%v", b.ratio, b.burst)
	}
}

func TestGroupAddrs(t *testing.T) {
	groups, err := GroupAddrs([]string{"a", "b", "c"}, 1)
	if err != nil || len(groups) != 3 || groups[1][0] != "b" {
		t.Fatalf("replicas=1: groups=%v err=%v", groups, err)
	}
	groups, err = GroupAddrs([]string{"a", "b", "c", "d"}, 2)
	if err != nil || len(groups) != 2 || groups[1][0] != "c" || groups[1][1] != "d" {
		t.Fatalf("replicas=2: groups=%v err=%v", groups, err)
	}
	if _, err = GroupAddrs([]string{"a", "b", "c"}, 2); err == nil {
		t.Fatal("3 addresses into groups of 2 must error")
	}
}
