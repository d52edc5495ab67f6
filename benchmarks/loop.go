package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"musuite/internal/trace"
)

// traceEvery is the traced deployment's sampling: one request in four
// carries a span context.
const traceEvery = 4

// driver runs the closed loop against one deployment, segment by segment,
// and keeps every latency sample.
type driver struct {
	d  *deployment
	cr *counterReader
	// spans receives the benchmark's own root span of every sampled request;
	// nil leaves the deployment untraced.
	spans *trace.Recorder

	seq  [numClients]int     // requests issued so far, per client
	lat  [numClients][]int32 // latency samples in ns, preallocated
	seg  []segment
	cost costs // process-wide counters, summed over the segments only
}

// segment is one measured stretch of the window.
type segment struct {
	end               [numClients]int // len(lat[c]) when the segment ended
	completed, failed int
	cost              costs // the segment's own share of driver.cost
	// scale turns a time measured in this segment into the nominal host's:
	// refHostUS over the mean of the two reference readings around it.
	scale float64
}

// newDriver preallocates the sample buffers, so that the window's allocation
// counts are the program's and its client path's, not the harness's.
func newDriver(d *deployment, cr *counterReader, spans *trace.Recorder, segments int, segDur time.Duration) *driver {
	dr := &driver{d: d, cr: cr, spans: spans, seg: make([]segment, 0, segments)}
	perClient := int(float64(segments) * segDur.Seconds() * 50000)
	for c := range dr.lat {
		dr.lat[c] = make([]int32, 0, perClient)
	}
	return dr
}

// runSegment drives the deployment for dur with numClients callers.  Client
// c issues stream entries c, c+2, c+4, … so the stream each client sees
// depends only on the seed.
func (dr *driver) runSegment(dur time.Duration) error {
	before, err := dr.cr.read()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	var failed [numClients]int
	deadline := time.Now().Add(dur)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s := dr.seq[c]
				var root trace.SpanContext
				var sc trace.SpanContext
				if dr.spans != nil && s%traceEvery == 0 {
					root = trace.NewRootContext()
					sc = root.Child()
				}
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				ok := dr.d.issue(c+numClients*s, sc)
				took := time.Since(start)
				dr.seq[c]++
				if !ok {
					// A failed request has no latency: it counts against
					// every latency figure by being absent from qps.
					failed[c]++
					continue
				}
				if len(dr.lat[c]) < cap(dr.lat[c]) {
					dr.lat[c] = append(dr.lat[c], int32(took))
				}
				if root.Sampled() {
					dr.spans.Record(trace.Span{
						TraceID: trace.ID(root.TraceID), SpanID: trace.ID(root.SpanID),
						Name: "bench.request", Kind: trace.KindClient,
						Start: start.UnixNano(), Duration: took.Nanoseconds(),
					})
				}
			}
		}(c)
	}
	wg.Wait()
	after, err := dr.cr.read()
	if err != nil {
		return err
	}
	var sg segment
	prev := [numClients]int{}
	if n := len(dr.seg); n > 0 {
		prev = dr.seg[n-1].end
	}
	for c := range dr.lat {
		sg.end[c] = len(dr.lat[c])
		sg.completed += sg.end[c] - prev[c]
		sg.failed += failed[c]
	}
	sg.cost.add(before, after)
	dr.cost.add(before, after)
	dr.seg = append(dr.seg, sg)
	return nil
}

// runWindow measures segments × segDur, cycling through the drivers (one for
// an untraced window; an untraced and a traced one alternating for the
// traced pass, so that both see the same host).  A reference reading is
// taken before the first segment and after every segment; it returns them.
func runWindow(ref *pingPong, drivers []*driver, segments int, segDur time.Duration) ([]float64, error) {
	readings := make([]float64, 0, segments+1)
	r, err := ref.measure()
	if err != nil {
		return nil, err
	}
	readings = append(readings, r)
	for i := 0; i < segments; i++ {
		dr := drivers[i%len(drivers)]
		if err := dr.runSegment(segDur); err != nil {
			return nil, err
		}
		if r, err = ref.measure(); err != nil {
			return nil, err
		}
		readings = append(readings, r)
		dr.seg[len(dr.seg)-1].scale = refHostUS / ((readings[i] + readings[i+1]) / 2)
	}
	return readings, nil
}

// segStats is one segment's time-valued figures on the nominal host: each
// is the segment's own measurement scaled by the segment's own reference
// readings.  Undoing scale gives the figure as measured.
type segStats struct{ qps, p50US, p99US, cpuUSPerReq, scale float64 }

// loopStats summarises a driver's window.
type loopStats struct {
	attempted, completed, failed int
	cost                         costs
	rawQPS                       float64
	raw                          []float64  // ascending latency samples, µs
	segs                         []segStats // one per segment that completed a request
}

func (dr *driver) stats() (loopStats, error) {
	var st loopStats
	for _, sg := range dr.seg {
		st.completed += sg.completed
		st.failed += sg.failed
	}
	st.attempted = st.completed + st.failed
	st.cost = dr.cost
	if st.completed == 0 {
		return st, fmt.Errorf("no request completed in the window")
	}
	st.rawQPS = float64(st.completed) / st.cost.elapsedS
	st.raw = make([]float64, 0, st.completed)
	var from [numClients]int
	for _, sg := range dr.seg {
		first := len(st.raw)
		for c := range dr.lat {
			for _, ns := range dr.lat[c][from[c]:sg.end[c]] {
				st.raw = append(st.raw, float64(ns)/1e3)
			}
			from[c] = sg.end[c]
		}
		own := st.raw[first:]
		if len(own) == 0 {
			continue
		}
		slices.Sort(own)
		n := float64(sg.completed)
		st.segs = append(st.segs, segStats{
			qps:         n / sg.cost.elapsedS / sg.scale,
			p50US:       quantile(own, 0.50) * sg.scale,
			p99US:       quantile(own, 0.99) * sg.scale,
			cpuUSPerReq: sg.cost.cpuUS / n * sg.scale,
			scale:       sg.scale,
		})
	}
	slices.Sort(st.raw)
	return st, nil
}

// quantile reads the q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr is the distance between the first and the third quartile of v.
func iqr(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// oneCallerP50 drives the deployment with a single caller for up to n
// requests or budget, and returns the median latency in µs: what a request
// costs when it waits for no other, which is what the layer probes add up to.
func oneCallerP50(d *deployment, n int, budget time.Duration) float64 {
	var lat []float64
	began := time.Now()
	for i := 0; i < n && time.Since(began) < budget; i++ {
		start := time.Now()
		if d.issue(i, trace.SpanContext{}) {
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return median(lat)
}
