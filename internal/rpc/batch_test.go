package rpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// --- carrier codec ---

// encodeCarrier is what Batcher.send puts on the wire for members.
func encodeCarrier(members ...*Call) []byte {
	enc := wire.NewEncoder(0)
	appendBatch(enc, members)
	return enc.Bytes()
}

// replyItem is one slot of a carrier reply: a payload or an error text.
type replyItem struct {
	reply []byte
	err   error
}

// encodeCarrierReply is what a leaf answers a carrier with.
func encodeCarrierReply(items ...replyItem) []byte {
	enc := wire.NewEncoder(0)
	AppendBatchReplyHeader(enc, len(items))
	for _, it := range items {
		AppendBatchReplyItem(enc, it.reply, it.err)
	}
	return enc.Bytes()
}

// decodeCarrierReply is Batcher.demux's walk over a carrier reply.
func decodeCarrierReply(b []byte, want int) ([]replyItem, error) {
	var d wire.Decoder
	if err := beginBatchReply(&d, b, want); err != nil {
		return nil, err
	}
	items := make([]replyItem, want)
	for i := range items {
		items[i].reply, items[i].err = nextBatchReplyItem(&d, i)
	}
	return items, nil
}

func TestBatchCodecRoundTrip(t *testing.T) {
	members := []*Call{
		{Method: "a.one", Payload: []byte("hello")},
		{Method: "b.two", Payload: nil},
		{Method: "c.three", Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	methods, payloads, spans, err := DecodeBatchInto(encodeCarrier(members...), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) != len(members) || len(payloads) != len(members) || len(spans) != len(members) {
		t.Fatalf("decoded %d/%d/%d items, want %d", len(methods), len(payloads), len(spans), len(members))
	}
	for i, m := range members {
		if methods[i] != m.Method || !bytes.Equal(payloads[i], m.Payload) {
			t.Fatalf("item %d: got %q/%q want %q/%q", i, methods[i], payloads[i], m.Method, m.Payload)
		}
		if spans[i] != (trace.SpanContext{}) {
			t.Fatalf("item %d of an untraced carrier decoded span context %+v", i, spans[i])
		}
	}
}

// garbageCarriers are payloads DecodeBatchInto must reject: an absurd member
// count, and a count the bytes behind it cannot hold.
var garbageCarriers = [][]byte{
	{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	{3, 'x'},
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	for _, b := range garbageCarriers {
		if _, _, _, err := DecodeBatchInto(b, nil, nil, nil); err == nil {
			t.Fatalf("garbage carrier % x accepted", b)
		}
	}
}

func TestBatchReplyPerItemStatus(t *testing.T) {
	b := encodeCarrierReply(replyItem{reply: []byte("ok-0")}, replyItem{err: errors.New("poisoned")}, replyItem{reply: []byte("ok-2")})
	got, err := decodeCarrierReply(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].reply, []byte("ok-0")) || !bytes.Equal(got[2].reply, []byte("ok-2")) {
		t.Fatalf("ok replies corrupted: %q %q", got[0].reply, got[2].reply)
	}
	if got[0].err != nil || got[2].err != nil {
		t.Fatalf("ok items carry errors: %v %v", got[0].err, got[2].err)
	}
	var be *BatchItemError
	if !errors.As(got[1].err, &be) || be.Msg != "poisoned" {
		t.Fatalf("failed item decoded as %v, want BatchItemError(poisoned)", got[1].err)
	}
}

func TestBatchReplyCountMismatch(t *testing.T) {
	if _, err := decodeCarrierReply(encodeCarrierReply(replyItem{}), 2); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

// goldenCarrier is a fixed three-member batch — one traced member, one with
// an empty payload, one the leaf fails — and the bytes PR 28's codec put on
// the wire for it in each direction.  The format is shared by every mid-tier
// and leaf of a deployment, so it may not drift.
var goldenCarrier = struct {
	members        []*Call
	replies        []replyItem
	request, reply string
}{
	members: []*Call{
		{Method: "svc.get", Payload: []byte("key-1"), Trace: trace.SpanContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718, ParentID: 0x2122232425262728, Flags: trace.FlagSampled}},
		{Method: "svc.get", Payload: nil},
		{Method: "svc.set", Payload: []byte{0x00, 0xFF, 0x7F}},
	},
	replies: []replyItem{
		{reply: []byte("value-1")},
		{reply: []byte{}},
		{err: errors.New("no such key")},
	},
	request: "030108070605040302011817161514131211282726252423222101" +
		"077376632e676574056b65792d31" +
		"00000000000000000000000000000000000000000000000000" + "077376632e67657400" +
		"00000000000000000000000000000000000000000000000000" + "077376632e7365740300ff7f",
	reply: "03" + "000776616c75652d31" + "0000" + "010b6e6f2073756368206b6579",
}

func TestBatchCarrierGolden(t *testing.T) {
	g := goldenCarrier
	req := encodeCarrier(g.members...)
	if got := hex.EncodeToString(req); got != g.request {
		t.Fatalf("carrier request bytes\n got %s\nwant %s", got, g.request)
	}
	methods, payloads, spans, err := DecodeBatchInto(req, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range g.members {
		if methods[i] != m.Method || !bytes.Equal(payloads[i], m.Payload) || spans[i] != m.Trace {
			t.Fatalf("member %d decoded as %q/%q/%+v, want %q/%q/%+v",
				i, methods[i], payloads[i], spans[i], m.Method, m.Payload, m.Trace)
		}
	}
	reply := encodeCarrierReply(g.replies...)
	if got := hex.EncodeToString(reply); got != g.reply {
		t.Fatalf("carrier reply bytes\n got %s\nwant %s", got, g.reply)
	}
	items, err := decodeCarrierReply(reply, len(g.replies))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range g.replies {
		if want.err != nil {
			var be *BatchItemError
			if !errors.As(items[i].err, &be) || be.Msg != want.err.Error() {
				t.Fatalf("item %d decoded as %v, want BatchItemError(%v)", i, items[i].err, want.err)
			}
		} else if items[i].err != nil || !bytes.Equal(items[i].reply, want.reply) {
			t.Fatalf("item %d decoded as %q/%v, want %q", i, items[i].reply, items[i].err, want.reply)
		}
	}
}

// FuzzDecodeBatchInto: a carrier payload arrives from the network, so the
// decoder may reject it but never panic, and never size its result from a
// count the payload's bytes cannot back.
func FuzzDecodeBatchInto(f *testing.F) {
	golden, _ := hex.DecodeString(goldenCarrier.request)
	f.Add(golden)
	for _, b := range garbageCarriers {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		methods, payloads, spans, err := DecodeBatchInto(b, nil, nil, nil)
		if len(methods) > len(b) || len(payloads) > len(b) || len(spans) > len(b) {
			t.Fatalf("%d-byte payload decoded into %d/%d/%d members", len(b), len(methods), len(payloads), len(spans))
		}
		if err == nil && (len(methods) != len(payloads) || len(methods) != len(spans)) {
			t.Fatalf("accepted payload decoded into %d/%d/%d members", len(methods), len(payloads), len(spans))
		}
	})
}

func TestClassifyBatchItemError(t *testing.T) {
	if got := Classify(&BatchItemError{Msg: "no such key"}); got != ClassApplication {
		t.Fatalf("Classify(BatchItemError) = %v, want application", got)
	}
	wrapped := fmt.Errorf("shard 2: %w", &BatchItemError{Msg: "bad"})
	if got := Classify(wrapped); got != ClassApplication {
		t.Fatalf("Classify(wrapped BatchItemError) = %v, want application", got)
	}
	if Retryable(&BatchItemError{Msg: "x"}) {
		t.Fatal("a per-item application failure must not be retryable")
	}
}

// --- batcher behaviour against a live server ---

// batchEchoServer answers plain calls with their payload and carrier calls
// with a per-item echo; payloads equal to "bad" fail their item.  It counts
// carriers and plain calls.
func batchEchoServer(t *testing.T) (addr string, carriers, plains *atomic.Uint64) {
	t.Helper()
	carriers, plains = new(atomic.Uint64), new(atomic.Uint64)
	srv := NewServer(func(req *Request) {
		if req.Method != BatchMethod {
			plains.Add(1)
			req.Reply(req.Payload)
			return
		}
		carriers.Add(1)
		_, payloads, _, err := DecodeBatchInto(req.Payload, nil, nil, nil)
		if err != nil {
			req.ReplyError(err)
			return
		}
		items := make([]replyItem, len(payloads))
		for i, p := range payloads {
			if string(p) == "bad" {
				items[i].err = errors.New("poisoned item")
			} else {
				items[i].reply = p
			}
		}
		req.Reply(encodeCarrierReply(items...))
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, carriers, plains
}

func startBatcher(t *testing.T, addr string, opts BatcherOptions) *Batcher {
	t.Helper()
	p, err := DialPool(addr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	b := NewBatcher(p, opts)
	t.Cleanup(b.Close)
	return b
}

// wantFlush asserts tab saw exactly one flush, of items members, for cause.
func wantFlush(t *testing.T, tab *telemetry.Table, items uint64, cause telemetry.Counter) {
	t.Helper()
	var want telemetry.Snapshot
	want[telemetry.BatchCarriers], want[telemetry.BatchMembers], want[cause] = 1, items, 1
	if got := tab.Snapshot(); got != want {
		t.Fatalf("batch counters %v, want one %v flush of %d", got, cause, items)
	}
}

func waitCalls(t *testing.T, calls []*Call) {
	t.Helper()
	for i, c := range calls {
		select {
		case <-c.Done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never completed", i)
		}
	}
}

func TestBatcherFlushOnSize(t *testing.T) {
	addr, carriers, plains := batchEchoServer(t)
	tab := telemetry.NewTable(nil)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 4,
		Delay:    func() time.Duration { return time.Hour }, // size must trigger, not time
		Counters: tab,
	})
	calls := make([]*Call, 4)
	for i := range calls {
		calls[i] = b.Go("echo", []byte{byte('a' + i)}, nil, nil)
	}
	waitCalls(t, calls)
	for i, c := range calls {
		if c.Err != nil {
			t.Fatalf("call %d: %v", i, c.Err)
		}
		if want := []byte{byte('a' + i)}; !bytes.Equal(c.Reply, want) {
			t.Fatalf("call %d reply %q, want %q: demux misordered", i, c.Reply, want)
		}
	}
	if got := carriers.Load(); got != 1 {
		t.Fatalf("%d carriers sent, want 1", got)
	}
	if got := plains.Load(); got != 0 {
		t.Fatalf("%d plain calls sent, want 0", got)
	}
	wantFlush(t, tab, 4, telemetry.BatchFlushSize)
}

func TestBatcherFlushOnDeadline(t *testing.T) {
	addr, carriers, _ := batchEchoServer(t)
	tab := telemetry.NewTable(nil)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 64, // never reached: the deadline must trigger
		Delay:    func() time.Duration { return 2 * time.Millisecond },
		Counters: tab,
	})
	c1 := b.Go("echo", []byte("x"), nil, nil)
	c2 := b.Go("echo", []byte("y"), nil, nil)
	waitCalls(t, []*Call{c1, c2})
	if c1.Err != nil || c2.Err != nil {
		t.Fatalf("errors: %v %v", c1.Err, c2.Err)
	}
	if got := carriers.Load(); got != 1 {
		t.Fatalf("%d carriers sent, want 1", got)
	}
	wantFlush(t, tab, 2, telemetry.BatchFlushDeadline)
}

func TestBatcherFlushOnShutdown(t *testing.T) {
	addr, carriers, _ := batchEchoServer(t)
	tab := telemetry.NewTable(nil)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 64,
		Delay:    func() time.Duration { return time.Hour },
		Counters: tab,
	})
	calls := make([]*Call, 3)
	for i := range calls {
		calls[i] = b.Go("echo", []byte{byte('0' + i)}, nil, nil)
	}
	b.Close()
	waitCalls(t, calls)
	for i, c := range calls {
		if c.Err != nil {
			t.Fatalf("call %d failed across shutdown flush: %v", i, c.Err)
		}
	}
	if got := carriers.Load(); got != 1 {
		t.Fatalf("%d carriers sent, want 1", got)
	}
	wantFlush(t, tab, 3, telemetry.BatchFlushShutdown)
	// Post-close enqueues are rejected, not silently queued.
	late := b.Go("echo", []byte("late"), nil, nil)
	waitCalls(t, []*Call{late})
	if !errors.Is(late.Err, ErrClientClosed) {
		t.Fatalf("post-close call got %v, want ErrClientClosed", late.Err)
	}
}

func TestBatcherSingletonSkipsCarrier(t *testing.T) {
	addr, carriers, plains := batchEchoServer(t)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 8,
		Delay:    func() time.Duration { return time.Millisecond },
	})
	c := b.Go("echo", []byte("solo"), nil, nil)
	waitCalls(t, []*Call{c})
	if c.Err != nil || !bytes.Equal(c.Reply, []byte("solo")) {
		t.Fatalf("reply %q err %v", c.Reply, c.Err)
	}
	if carriers.Load() != 0 || plains.Load() != 1 {
		t.Fatalf("carriers=%d plains=%d, want a lone member sent without carrier framing",
			carriers.Load(), plains.Load())
	}
}

func TestBatcherPerItemFailureIsolated(t *testing.T) {
	addr, _, _ := batchEchoServer(t)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 3,
		Delay:    func() time.Duration { return time.Hour },
	})
	good1 := b.Go("echo", []byte("g1"), nil, nil)
	bad := b.Go("echo", []byte("bad"), nil, nil)
	good2 := b.Go("echo", []byte("g2"), nil, nil)
	waitCalls(t, []*Call{good1, bad, good2})
	if good1.Err != nil || good2.Err != nil {
		t.Fatalf("healthy batch-mates condemned: %v %v", good1.Err, good2.Err)
	}
	var be *BatchItemError
	if !errors.As(bad.Err, &be) {
		t.Fatalf("poisoned item got %v, want BatchItemError", bad.Err)
	}
	if Classify(bad.Err) != ClassApplication {
		t.Fatal("poisoned item classified retryable")
	}
}

func TestBatcherAbandonQueuedMember(t *testing.T) {
	addr, carriers, plains := batchEchoServer(t)
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 8,
		Delay:    func() time.Duration { return 5 * time.Millisecond },
	})
	keep := b.Go("echo", []byte("keep"), nil, nil)
	drop := b.Go("echo", []byte("drop"), nil, nil)
	b.AbandonRef(drop.Ref())
	waitCalls(t, []*Call{keep})
	if keep.Err != nil || !bytes.Equal(keep.Reply, []byte("keep")) {
		t.Fatalf("survivor reply %q err %v", keep.Reply, keep.Err)
	}
	// The abandoned member was removed before the flush, so the lone
	// survivor went out as a plain call and the dropped one never reached
	// the wire.
	if carriers.Load() != 0 || plains.Load() != 1 {
		t.Fatalf("carriers=%d plains=%d after abandoning one of two members",
			carriers.Load(), plains.Load())
	}
	select {
	case <-drop.Done:
		t.Fatal("abandoned member delivered a completion")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestBatcherWholeCarrierFailureFailsEveryMember(t *testing.T) {
	// A server that rejects the carrier itself (application-level), so the
	// demux must fan the carrier error out to every member.
	srv := NewServer(func(req *Request) {
		req.ReplyError(errors.New("carrier refused"))
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	b := startBatcher(t, addr, BatcherOptions{
		MaxBatch: 2,
		Delay:    func() time.Duration { return time.Hour },
	})
	c1 := b.Go("echo", []byte("a"), nil, nil)
	c2 := b.Go("echo", []byte("b"), nil, nil)
	waitCalls(t, []*Call{c1, c2})
	for i, c := range []*Call{c1, c2} {
		if c.Err == nil {
			t.Fatalf("member %d succeeded under a failed carrier", i)
		}
	}
}
