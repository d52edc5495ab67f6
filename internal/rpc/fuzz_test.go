package rpc

import (
	"testing"
	"time"

	"musuite/internal/trace"
)

// FuzzFrameRead feeds arbitrary bytes to the connection reader's frame
// parser.  Malformed input must surface as an error, never a panic, an
// out-of-bounds payload view or a frame buffer that is not returned; cutting
// the input into one-byte reads must not change what it decodes to; and the
// frames that do decode must survive an appendFrame→parse round trip
// bit-for-bit, which pins the header layout both directions at once.
func FuzzFrameRead(f *testing.F) {
	valid, _ := appendFrame(nil, kindRequest, 42, trace.SpanContext{}, "search.knn", []byte("query-bytes"))
	f.Add(valid)
	empty, _ := appendFrame(nil, kindResponse, 1, trace.SpanContext{}, "", nil)
	f.Add(empty)
	traced, _ := appendFrame(nil, kindRequest, 7,
		trace.SpanContext{TraceID: 0xAB, SpanID: 0xCD, ParentID: 0xEF, Flags: trace.FlagSampled},
		"search.knn", []byte("q"))
	f.Add(traced)
	f.Add(append(append(append([]byte(nil), valid...), traced...), empty...))
	// Length prefix claiming far more body than follows.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1})
	// Body length below the fixed header minimum.
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})
	// Method length overrunning the declared body.
	f.Add([]byte{12, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0})
	// Traced kind with a body too short to hold the trace header.
	f.Add([]byte{11, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	// Each input compares the process-wide buffer count before and after,
	// and an earlier test's tiers release their last buffers on their own
	// goroutines a moment after it ends: start once the count has held
	// still for 50 ms.
	deadline := time.Now().Add(hardTimeout)
	for last, since := BufsInUse(), time.Now(); time.Since(since) < 50*time.Millisecond && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if now := BufsInUse(); now != last {
			last, since = now, time.Now()
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		held := BufsInUse()
		frames, err := feedParser(data)
		if now := BufsInUse(); now != held {
			t.Fatalf("parser kept %d frame buffers", now-held)
		}

		bytewise, berr := feedParser(data, everyOffset(len(data))...)
		if (err == nil) != (berr == nil) || len(bytewise) != len(frames) {
			t.Fatalf("whole input: %d frames, err %v; byte by byte: %d frames, err %v",
				len(frames), err, len(bytewise), berr)
		}
		var reenc []byte
		for i, fr := range frames {
			if len(fr.payload) > len(data) {
				t.Fatalf("payload %d bytes exceeds %d-byte input", len(fr.payload), len(data))
			}
			if !bytewise[i].sameFrame(fr) {
				t.Fatalf("frame %d: byte by byte %+v, whole %+v", i, bytewise[i], fr)
			}
			if reenc, err = appendFrame(reenc, fr.kind, fr.id, fr.sc, fr.method, fr.payload); err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
		}
		again, err := feedParser(reenc)
		if err != nil || len(again) != len(frames) {
			t.Fatalf("re-decode: %d of %d frames, err %v", len(again), len(frames), err)
		}
		for i, fr := range frames {
			// A traced frame whose flags lost the sampled bit re-encodes as a
			// plain request (the header only travels when sampled); everything
			// else must round trip exactly.
			if fr.kind == kindRequestTraced && !fr.sc.Sampled() {
				fr.kind, fr.sc = kindRequest, trace.SpanContext{}
			}
			if !again[i].sameFrame(fr) {
				t.Fatalf("round trip mismatch: %+v vs %+v", again[i], fr)
			}
		}
	})
}

// everyOffset returns 1, 2, …, n-1: the cuts that feed a stream of n bytes
// one byte at a time.
func everyOffset(n int) []int {
	var cuts []int
	for i := 1; i < n; i++ {
		cuts = append(cuts, i)
	}
	return cuts
}
