package trace

import (
	"sync"
	"testing"
	"time"
)

// stampAt back-dates a stamp: tests lay out a record at fixed offsets
// instead of sleeping between Stamp calls.
func (t *Stamps) stampAt(s Stage, d time.Duration) { t.at[s].CompareAndSwap(0, int64(d)) }

func TestStampFirstWins(t *testing.T) {
	tr := NewStamps(time.Now())
	tr.stampAt(StageWorkerStart, time.Microsecond)
	tr.Stamp(StageWorkerStart)
	if got := tr.At(StageWorkerStart); got != time.Microsecond {
		t.Fatalf("second stamp overwrote first: %v", got)
	}
}

func TestStampIsNeverZero(t *testing.T) {
	// A stamp in the same clock tick as the arrival must still read as set.
	tr := NewStamps(time.Now().Add(time.Hour))
	tr.Stamp(StageReplySent)
	if tr.At(StageReplySent) <= 0 {
		t.Fatal("stamp at or before arrival reads as not stamped")
	}
}

func TestNilStampsSafe(t *testing.T) {
	var tr *Stamps
	tr.Stamp(StageEnqueued)
	if tr.At(StageEnqueued) != 0 {
		t.Fatal("nil record returned a time")
	}
}

func TestStagesSegments(t *testing.T) {
	tr := NewStamps(time.Now())
	tr.stampAt(StageEnqueued, 1*time.Microsecond)
	tr.stampAt(StageWorkerStart, 11*time.Microsecond)
	tr.stampAt(StageFanoutIssued, 31*time.Microsecond)
	tr.stampAt(StageLastLeafResponse, 131*time.Microsecond)
	tr.stampAt(StageReplySent, 141*time.Microsecond)
	st := tr.Stages()
	want := Stages{
		Handoff: 1 * time.Microsecond, Queue: 10 * time.Microsecond,
		Compute: 20 * time.Microsecond, LeafWait: 100 * time.Microsecond,
		Merge: 10 * time.Microsecond,
	}
	if *st != want {
		t.Fatalf("stages: %+v", *st)
	}
	if st.Sum() != tr.At(StageReplySent) {
		t.Fatalf("a fully stamped record's segments sum to %v, reply at %v", st.Sum(), tr.At(StageReplySent))
	}
	if got := st.String(); got != "handoff=1µs queue=10µs compute=20µs leaf-wait=100µs merge=10µs" {
		t.Fatalf("rendered %q", got)
	}
}

func TestStagesMissingAndOutOfOrderAreZero(t *testing.T) {
	// An in-line request that replied without fanning out: only the worker
	// start and the reply are stamped.
	tr := NewStamps(time.Now())
	tr.stampAt(StageWorkerStart, time.Microsecond)
	tr.stampAt(StageReplySent, time.Millisecond)
	if st := tr.Stages(); *st != (Stages{}) || st.String() != "" {
		t.Fatalf("stages: %+v", *st)
	}
	// Out-of-order stamps (fan-out issued after the last response) clamp to 0.
	tr2 := NewStamps(time.Now())
	tr2.stampAt(StageFanoutIssued, time.Second)
	tr2.stampAt(StageLastLeafResponse, time.Millisecond)
	if tr2.Stages().LeafWait != 0 {
		t.Fatal("negative segment not clamped")
	}
}

func TestConcurrentStamps(t *testing.T) {
	tr := NewStamps(time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := Stage(0); s < numStages; s++ {
				tr.Stamp(s)
			}
		}()
	}
	wg.Wait()
	for s := Stage(0); s < numStages; s++ {
		if tr.At(s) == 0 {
			t.Fatalf("concurrent stamps left stage %d unset", s)
		}
	}
}

// TestStageReport pins the -experiment trace table over a fixed span set:
// six rows, nearest-rank p50 and p99, spans without a stage record ignored.
func TestStageReport(t *testing.T) {
	us := time.Microsecond
	var spans []Span
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * us
		spans = append(spans, Span{
			TraceID: 1, SpanID: ID(i), Name: "svc.search", Kind: KindServer,
			Duration: int64(20 * d),
			Stages:   &Stages{Handoff: d, Queue: 2 * d, Compute: 3 * d, LeafWait: 10 * d, Merge: 4 * d},
		})
	}
	spans = append(spans,
		Span{TraceID: 1, SpanID: 1000, Name: "svc.leaf", Kind: KindServer, Duration: int64(time.Hour)},
		Span{TraceID: 1, SpanID: 1001, Name: "svc.leaf", Kind: KindClient, Duration: int64(time.Hour)})
	want := "request latency attribution (100 sampled requests)\n" +
		"  stage      p50          p99         \n" +
		"  handoff    50µs         99µs        \n" +
		"  queue      100µs        198µs       \n" +
		"  compute    150µs        297µs       \n" +
		"  leaf-wait  500µs        990µs       \n" +
		"  merge      200µs        396µs       \n" +
		"  total      1ms          1.98ms      \n"
	if got := StageReport(spans); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
	if got := StageReport(nil); got == "" {
		t.Fatal("empty span set rendered nothing")
	}
}
