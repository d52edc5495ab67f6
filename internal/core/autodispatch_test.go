package core

import (
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

func TestRateMeterBasics(t *testing.T) {
	// The epoch is long against scheduler noise: the sleep that crosses into
	// the second epoch may overshoot by most of an epoch before it would
	// skip one and read as idle.
	m := newRateMeter(200 * time.Millisecond)
	// First epoch: previous count is zero, so the estimate is zero.
	if r := m.tick(); r != 0 {
		t.Fatalf("initial rate=%v", r)
	}
	// Fill the first epoch then cross into the second.
	for i := 0; i < 99; i++ {
		m.tick()
	}
	time.Sleep(210 * time.Millisecond)
	m.tick() // rolls the epoch, publishing ~100 events / 200ms = ~500/s
	r := m.rate()
	if r < 250 || r > 750 {
		t.Fatalf("rate=%v want ≈500", r)
	}
	// After an idle gap spanning multiple epochs, the rate resets to 0.
	time.Sleep(600 * time.Millisecond)
	m.tick()
	if r := m.rate(); r != 0 {
		t.Fatalf("post-idle rate=%v", r)
	}
}

// TestAutoDispatchLowLoadRunsInline: with arrivals far below the threshold,
// every request after the first epoch runs in-line (no worker dispatch).
func TestAutoDispatchLowLoadRunsInline(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	probe := telemetry.NewProbe()
	opts := Options{
		Dispatch:        DispatchAuto,
		AutoDispatchQPS: 1000,
		Workers:         2,
		Probe:           probe,
	}
	addr, mt := startMidTier(t, []string{leafAddr}, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := c.Call("echo1", []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // ≈200 QPS ≪ threshold
	}
	if got := mt.Stats().Inlined; got != n {
		t.Fatalf("inlined %d of %d at low load", got, n)
	}
}

// TestAutoDispatchHighLoadDispatches: a burst beyond the threshold must
// switch to dispatching (observable as worker ActiveExe samples).
func TestAutoDispatchHighLoadDispatches(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	probe := telemetry.NewProbe()
	opts := Options{
		Dispatch:        DispatchAuto,
		AutoDispatchQPS: 100, // low threshold so the burst crosses it fast
		Workers:         2,
		Probe:           probe,
	}
	addr, mt := startMidTier(t, []string{leafAddr}, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two+ epochs of back-to-back traffic: after the first epoch
	// completes at a high count, subsequent requests see rate > 100.
	deadline := time.Now().Add(400 * time.Millisecond)
	total := uint64(0)
	for time.Now().Before(deadline) {
		if _, err := c.Call("echo1", []byte("x")); err != nil {
			t.Fatal(err)
		}
		total++
	}
	dispatched := total - mt.Stats().Inlined
	if dispatched == 0 {
		t.Fatalf("no request dispatched under burst (%d total, %d inlined)", total, mt.Stats().Inlined)
	}
	if probe.OverheadSnapshot(telemetry.OverheadActiveExe).Count == 0 {
		t.Fatal("no worker dispatch observed")
	}
}

func TestDispatchModeNames(t *testing.T) {
	if DispatchAuto.String() != "auto" {
		t.Fatalf("auto name=%q", DispatchAuto.String())
	}
}
