package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/telemetry"
)

// --- carrier codec ---

func TestBatchCodecRoundTrip(t *testing.T) {
	items := []BatchItem{
		{Method: "a.one", Payload: []byte("hello")},
		{Method: "b.two", Payload: nil},
		{Method: "c.three", Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	got, err := DecodeBatch(EncodeBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Method != items[i].Method || !bytes.Equal(got[i].Payload, items[i].Payload) {
			t.Fatalf("item %d: got %q/%q want %q/%q",
				i, got[i].Method, got[i].Payload, items[i].Method, items[i].Payload)
		}
	}
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("absurd item count accepted")
	}
	if _, err := DecodeBatch([]byte{3, 'x'}); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func TestBatchReplyPerItemStatus(t *testing.T) {
	replies := [][]byte{[]byte("ok-0"), nil, []byte("ok-2")}
	errs := []error{nil, errors.New("poisoned"), nil}
	gotReplies, gotErrs, err := DecodeBatchReply(EncodeBatchReply(replies, errs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReplies[0], replies[0]) || !bytes.Equal(gotReplies[2], replies[2]) {
		t.Fatalf("ok replies corrupted: %q %q", gotReplies[0], gotReplies[2])
	}
	if gotErrs[0] != nil || gotErrs[2] != nil {
		t.Fatalf("ok items carry errors: %v %v", gotErrs[0], gotErrs[2])
	}
	var be *BatchItemError
	if !errors.As(gotErrs[1], &be) || be.Msg != "poisoned" {
		t.Fatalf("failed item decoded as %v, want BatchItemError(poisoned)", gotErrs[1])
	}
}

func TestBatchReplyCountMismatch(t *testing.T) {
	b := EncodeBatchReply([][]byte{nil}, []error{nil})
	if _, _, err := DecodeBatchReply(b, 2); err == nil {
		t.Fatal("count mismatch accepted")
	}
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
		items, err := DecodeBatch(req.Payload)
		if err != nil {
			req.ReplyError(err)
			return
		}
		replies := make([][]byte, len(items))
		errs := make([]error, len(items))
		for i, it := range items {
			if string(it.Payload) == "bad" {
				errs[i] = errors.New("poisoned item")
			} else {
				replies[i] = it.Payload
			}
		}
		req.Reply(EncodeBatchReply(replies, errs))
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
	b.Abandon(drop)
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
