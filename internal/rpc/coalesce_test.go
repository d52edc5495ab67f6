package rpc

import (
	"testing"

	"musuite/internal/trace"
)

// gatedWriter holds every Write until the test lets it through, announcing
// each as it starts.
type gatedWriter struct {
	entered chan struct{}
	proceed chan struct{}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.proceed
	return len(p), nil
}

// TestIdleWriteQueueDropsBigBuffers: a 3 MiB frame queued behind a write in
// flight, and a small one queued behind the 3 MiB write, leave the big
// frame's buffer in buf after the second swap; once the queue is idle,
// neither half keeps more than maxIdleWriteBuf.
func TestIdleWriteQueueDropsBigBuffers(t *testing.T) {
	w := &gatedWriter{entered: make(chan struct{}), proceed: make(chan struct{})}
	q := newWriteQueue(w, nil, nil)
	send := func(id uint64, payload []byte) {
		if err := q.enqueue(kindResponse, id, trace.SpanContext{}, "", payload); err != nil {
			t.Error(err)
		}
	}
	within(t, "the three writes", func() {
		flushed := make(chan struct{})
		go func() {
			send(1, []byte("first"))
			close(flushed)
		}()
		<-w.entered
		send(2, make([]byte, 3<<20))
		w.proceed <- struct{}{}
		<-w.entered // the 3 MiB write
		send(3, []byte("third"))
		w.proceed <- struct{}{}
		<-w.entered
		w.proceed <- struct{}{}
		<-flushed
	})
	q.mu.Lock()
	bufCap, scratchCap := cap(q.buf), cap(q.scratch)
	q.mu.Unlock()
	if bufCap > maxIdleWriteBuf || scratchCap > maxIdleWriteBuf {
		t.Errorf("an idle queue keeps %d B (buf %d, scratch %d), want at most %d in each half",
			bufCap+scratchCap, bufCap, scratchCap, maxIdleWriteBuf)
	}
}
