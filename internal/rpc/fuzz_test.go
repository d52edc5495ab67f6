package rpc

import (
	"bufio"
	"bytes"
	"testing"

	"musuite/internal/trace"
)

// FuzzFrameRead feeds arbitrary bytes to readFrame.  Malformed input must
// surface as an error, never a panic or an out-of-bounds payload view; a
// frame that does decode must survive an appendFrame→readFrame round trip
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
	// Length prefix claiming far more body than follows.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1})
	// Body length below the fixed header minimum.
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})
	// Method length overrunning the declared body.
	f.Add([]byte{12, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0})
	// Traced kind with a body too short to hold the trace header.
	f.Add([]byte{11, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var fr frame
		if err := readFrame(br, &fr, nil); err != nil {
			return
		}
		if len(fr.payload) > len(data) {
			t.Fatalf("payload %d bytes exceeds %d-byte input", len(fr.payload), len(data))
		}
		reenc, err := appendFrame(nil, fr.kind, fr.id, fr.sc, fr.method, fr.payload)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		var fr2 frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(reenc)), &fr2, nil); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// A traced frame whose flags lost the sampled bit re-encodes as a
		// plain request (the header only travels when sampled); everything
		// else must round trip exactly.
		wantKind, wantSC := fr.kind, fr.sc
		if fr.kind == kindRequestTraced && !fr.sc.Sampled() {
			wantKind, wantSC = kindRequest, trace.SpanContext{}
		}
		if fr2.kind != wantKind || fr2.id != fr.id || fr2.method != fr.method ||
			fr2.sc != wantSC || !bytes.Equal(fr2.payload, fr.payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", fr2, fr)
		}
	})
}
