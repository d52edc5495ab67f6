// OS/network characterization: the paper's actual experiment, in miniature.
//
// The example attaches a telemetry probe and a span recorder to a Set
// Algebra mid-tier, drives it with open-loop Poisson load at two rates —
// every request traced, which is the front end's decision alone — and prints
// (1) the syscall-per-query profile, (2) the OS-overhead classes, (3) the
// per-request stage attribution read off the mid-tier's server spans — the
// data behind Figs. 11–18.
//
//	go run ./examples/oschar
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"musuite"
	"musuite/internal/trace"
)

func main() {
	probe := musuite.NewProbe()
	spans := trace.NewRecorder("oschar", 0)

	corpus := musuite.NewDocCorpus(musuite.DocCorpusConfig{
		Docs: 1500, VocabSize: 4000, MeanDocLen: 70, Seed: 12,
	})
	cluster, err := musuite.StartSetAlgebraCluster(musuite.SetAlgebraClusterConfig{
		Corpus: corpus,
		Shards: 4,
		MidTier: musuite.MidTierOptions{
			Workers:         2,
			ResponseThreads: 2,
			Probe:           probe,
			Spans:           spans,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := musuite.DialSetAlgebra(cluster.Addr, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	queries := corpus.Queries(4096, 10, 13)
	var next atomic.Uint64
	issue := func(done chan *musuite.RPCCall) *musuite.RPCCall {
		return client.GoSpan(queries[next.Add(1)%uint64(len(queries))], trace.NewRootContext(), done)
	}

	for _, qps := range []float64{50, 800} {
		probe.Reset()
		before := probe.Snapshot()
		res := musuite.RunOpenLoop(issue, musuite.OpenLoopConfig{
			QPS: qps, Duration: 2 * time.Second, Seed: int64(qps),
		})
		delta := probe.Snapshot().Delta(before)

		fmt.Printf("=== load %g QPS (completed %d, p50 %v, p99 %v) ===\n",
			qps, res.Completed, res.Latency.Median, res.Latency.P99)

		fmt.Println("syscall proxies per query (Figs. 11-14 analog):")
		for _, sys := range musuite.Syscalls() {
			if n := delta[sys]; n > 0 {
				fmt.Printf("  %-12s %.2f\n", sys.Name(), float64(n)/float64(res.Completed))
			}
		}

		fmt.Println("OS overhead classes, p99 (Figs. 15-18 analog):")
		for _, o := range musuite.Overheads() {
			if snap := probe.OverheadSnapshot(o); snap.Count > 0 {
				fmt.Printf("  %-11s %v\n", o, snap.P99)
			}
		}
		fmt.Printf("context switches: %d, lock handoffs (HITM proxy): %d\n\n",
			delta[musuite.CtxSwitch], delta[musuite.HITM])
	}

	recorded := spans.Snapshot()
	fmt.Print(trace.StageReport(recorded))
	fmt.Println()
	fmt.Println("three sampled request traces:")
	for i, shown := len(recorded)-1, 0; i >= 0 && shown < 3; i-- {
		if s := &recorded[i]; s.Stages != nil {
			fmt.Printf("  %s total=%v\n", s.Stages, time.Duration(s.Duration))
			shown++
		}
	}
}
