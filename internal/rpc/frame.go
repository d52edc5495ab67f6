// Package rpc is μSuite's RPC substrate: the stdlib stand-in for gRPC.
//
// It provides length-prefixed binary framing over TCP, a server whose
// per-connection reader goroutines play the role of μSuite's network poller
// threads, and a fully asynchronous client in which no execution thread is
// associated with a particular RPC — all call state is explicit in a pending
// table, exactly as §IV of the paper describes.  Frame reads and writes feed
// the telemetry probe at the same boundaries where a native implementation
// would cross the kernel (sendmsg/recvmsg/epoll_pwait), so the syscall and
// OS-overhead characterizations of Figs. 11–18 can be regenerated.
package rpc

import (
	"errors"
	"fmt"

	"musuite/internal/trace"
)

// Frame kinds on the wire.
const (
	kindRequest  byte = 1
	kindResponse byte = 2
	kindError    byte = 3
	// kindRequestTraced is a request carrying a trace header: 25 extra
	// bytes (trace ID, span ID, parent span ID — little-endian u64 each —
	// and a flags byte) between the call ID and the method length.
	// Unsampled requests keep the kindRequest layout, so the untraced hot
	// path is byte-identical with tracing compiled in.
	kindRequestTraced byte = 4
	// kindReject is a typed shed: the server refused the request before
	// executing it (admission limit, deadline-doomed, queue full).  Same
	// layout as kindError with the shed reason as payload, but the client
	// surfaces it as an OverloadError so callers can tell load shedding
	// apart from application failures — sheds are never retried and never
	// consume retry budget.
	kindReject byte = 5
)

// traceHdrLen is the size of the span-context header on traced frames.
const traceHdrLen = 8 + 8 + 8 + 1

// MaxFrameSize bounds a single message; larger frames abort the connection.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge reports a frame exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// ErrTimeout reports an RPC that exceeded its deadline.
var ErrTimeout = errors.New("rpc: call timed out")

// frame is the unit of transmission.
//
// Layout: u32 body length | u8 kind | u64 id | [trace header, traced
// requests only] | u16 method length | method bytes | payload.  For
// kindError the payload carries the error text.
type frame struct {
	kind    byte
	id      uint64
	method  string
	payload []byte
	// sc is the span context of a kindRequestTraced frame (zero otherwise).
	sc trace.SpanContext
	// buf is the pooled buffer the body was read into (payload points into
	// it); its one reference is the reader's to hand on (take) or release.
	buf *Buf
}

const frameHeaderLen = 4 + 1 + 8 + 2

// appendFrame encodes one frame onto the end of buf (reusing capacity,
// never truncating — the write coalescer accumulates several frames in one
// buffer) and returns the result.  On error buf is unmodified.
func appendFrame(buf []byte, kind byte, id uint64, sc trace.SpanContext, method string, payload []byte) ([]byte, error) {
	if len(method) > 0xFFFF {
		return buf, fmt.Errorf("rpc: method name too long (%d bytes)", len(method))
	}
	if kind == kindRequestTraced {
		// Callers pass kindRequest + a sampled context; a re-encoded
		// decoded frame normalizes back through the same rule.
		kind = kindRequest
	}
	traced := kind == kindRequest && sc.Sampled()
	body := 1 + 8 + 2 + len(method) + len(payload)
	if traced {
		kind = kindRequestTraced
		body += traceHdrLen
	}
	if body > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	buf = append(buf, byte(body), byte(body>>8), byte(body>>16), byte(body>>24))
	buf = append(buf, kind)
	buf = append(buf,
		byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
		byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
	if traced {
		buf = appendTraceHeader(buf, sc)
	}
	ml := len(method)
	buf = append(buf, byte(ml), byte(ml>>8))
	buf = append(buf, method...)
	buf = append(buf, payload...)
	return buf, nil
}

// appendTraceHeader encodes sc in the traced-frame header layout.
func appendTraceHeader(buf []byte, sc trace.SpanContext) []byte {
	for _, v := range [3]uint64{sc.TraceID, sc.SpanID, sc.ParentID} {
		buf = append(buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return append(buf, sc.Flags)
}

// readTraceHeader decodes a traced-frame header from b (len ≥ traceHdrLen).
func readTraceHeader(b []byte) trace.SpanContext {
	u64 := func(p []byte) uint64 {
		return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	}
	return trace.SpanContext{
		TraceID:  u64(b[0:8]),
		SpanID:   u64(b[8:16]),
		ParentID: u64(b[16:24]),
		Flags:    b[24],
	}
}

// take hands the frame's buffer, and the duty to Release it, to the caller.
func (f *frame) take() *Buf {
	b := f.buf
	f.buf = nil
	return b
}

// decode parses the frame's header fields out of its body (f.buf) and points
// payload at the rest.
func (f *frame) decode() error {
	raw := f.buf.bytes()
	body := len(raw)
	f.kind = raw[0]
	f.id = uint64(raw[1]) | uint64(raw[2])<<8 | uint64(raw[3])<<16 | uint64(raw[4])<<24 |
		uint64(raw[5])<<32 | uint64(raw[6])<<40 | uint64(raw[7])<<48 | uint64(raw[8])<<56
	off := 9
	if f.kind == kindRequestTraced {
		if body < 1+8+traceHdrLen+2 {
			return fmt.Errorf("rpc: traced frame body length %d too short", body)
		}
		f.sc = readTraceHeader(raw[9 : 9+traceHdrLen])
		off += traceHdrLen
	} else {
		f.sc = trace.SpanContext{}
	}
	ml := int(raw[off]) | int(raw[off+1])<<8
	if off+2+ml > body {
		return fmt.Errorf("rpc: method length %d exceeds frame", ml)
	}
	// Interned method: consecutive frames from one peer overwhelmingly
	// repeat the same method, and string comparison against a []byte does
	// not allocate, so the conversion runs only when the method changes.
	if mview := raw[off+2 : off+2+ml]; string(mview) != f.method {
		f.method = string(mview)
	}
	f.payload = raw[off+2+ml : body]
	return nil
}
