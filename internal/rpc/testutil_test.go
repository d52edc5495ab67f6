package rpc

import (
	"bytes"

	"musuite/internal/trace"
)

// gotFrame is one frame a parser delivered, copied out of its buffer.
type gotFrame struct {
	kind       byte
	id         uint64
	sc         trace.SpanContext
	method     string
	payload    []byte
	backlogged bool
	// fedBeyond reports whether, at delivery, the parser had been given bytes
	// past this frame's end: what backlogged must equal.
	fedBeyond bool
}

func (g gotFrame) sameFrame(o gotFrame) bool {
	return g.kind == o.kind && g.id == o.id && g.sc == o.sc && g.method == o.method &&
		bytes.Equal(g.payload, o.payload)
}

// feedParser runs stream through a fresh connection-sized parser the way a
// connReader would if its reads returned the pieces that end at cuts
// (ascending offsets into stream; the rest follows as one last piece): each
// piece goes where dst says, as much as fits at a time, and is drained.  It
// returns the frames delivered, the error that ended the stream (nil if it
// was consumed to the end) and releases whatever the parser still held.
func feedParser(stream []byte, cuts ...int) ([]gotFrame, error) {
	p := frameParser{buf: make([]byte, readBufSize)}
	defer p.release()
	var (
		got      []gotFrame
		fed, end int // bytes given to the parser; end offset of the delivered frames
	)
	deliver := func(f *frame, backlogged bool) {
		end += 4 + len(f.buf.bytes())
		got = append(got, gotFrame{
			kind: f.kind, id: f.id, sc: f.sc, method: f.method,
			payload:    append([]byte(nil), f.payload...),
			backlogged: backlogged, fedBeyond: fed > end,
		})
	}
	for _, cut := range append(cuts, len(stream)) {
		for fed < cut {
			n := copy(p.dst(), stream[fed:cut])
			fed += n
			p.advance(n)
			if err := p.drain(deliver); err != nil {
				return got, err
			}
		}
	}
	return got, nil
}

// failed reports whether a write on the queue's connection has failed.
func (q *writeQueue) failed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err != nil
}
