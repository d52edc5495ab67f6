package bench

import (
	"errors"
	"strings"
	"time"

	"musuite/internal/loadgen"
	"musuite/internal/trace"
)

// TraceRun deploys the named service at scale s, offers an open-loop load
// while sampling one in every sample front-end requests for end-to-end
// distributed tracing, and returns the recorded spans alongside the load
// result.  The spans form complete trees: the front-end's root client span,
// the mid-tier's server and per-attempt client spans (hedges, retries, and
// abandoned losers included), and the leaves' server spans.
func TraceRun(service string, s Scale, mode FrameworkMode, qps float64, duration time.Duration, sample int) ([]trace.Span, loadgen.OpenLoopResult, error) {
	rec := trace.NewRecorder(strings.ToLower(service), trace.DefaultRecorderCap)
	mode.Spans = rec
	mode.SpanSample = sample
	inst, err := StartService(service, s, mode)
	if err != nil {
		return nil, loadgen.OpenLoopResult{}, err
	}
	res := loadgen.RunOpenLoop(inst.Issue, loadgen.OpenLoopConfig{
		QPS: qps, Duration: duration, Seed: s.Seed,
	})
	// A tier records its server span after the reply is written, so the last
	// requests' spans can trail the load run: closing the deployment waits
	// for every worker, after which the recorder is complete.
	inst.Close()
	return rec.Snapshot(), res, nil
}

// ReplayRun re-offers a recorded trace's arrival process (the root spans'
// start offsets) against a fresh deployment of the named service.  Request
// bodies come from the service's own workload stream — what is reproduced
// is the offered-load process, bursts included.
func ReplayRun(service string, s Scale, mode FrameworkMode, spans []trace.Span, speed float64) (loadgen.OpenLoopResult, error) {
	offsets := trace.ArrivalOffsets(spans)
	if len(offsets) == 0 {
		return loadgen.OpenLoopResult{}, errors.New("bench: trace has no root spans to replay")
	}
	inst, err := StartService(service, s, mode)
	if err != nil {
		return loadgen.OpenLoopResult{}, err
	}
	defer inst.Close()
	return loadgen.RunReplay(inst.Issue, loadgen.ReplayConfig{
		Offsets: offsets, Speed: speed,
	}), nil
}

// ServiceForTrace infers which benchmark a recorded trace belongs to from
// its span method names ("hdsearch.search" → "HDSearch"), so a replay can
// deploy the right service without being told.
func ServiceForTrace(spans []trace.Span) (string, bool) {
	for i := range spans {
		name := spans[i].Name
		if j := strings.IndexByte(name, '.'); j > 0 {
			if svc := ServiceByKind(name[:j]); svc != nil {
				return svc.Name, true
			}
		}
	}
	return "", false
}
