package rpc

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// Request is one incoming RPC as seen by a server.  The network poller
// goroutine that read the frame hands the Request to the server's handler;
// Reply and ReplyError may be called later from any goroutine — there is no
// thread↔RPC affinity, matching μSuite's asynchronous design.
type Request struct {
	// Method names the remote procedure.
	Method string
	// Payload is the encoded request body.  The request owns its bytes (the
	// poller read them into a buffer of the request's own), so Payload is
	// valid until Reply or ReplyError, wherever the handler runs and however
	// many frames the connection has read since.  See HoldPayload.
	Payload []byte
	// Arrival is when the frame was fully decoded: the origin of the Net
	// overhead, the admission deadline and the server span.
	Arrival time.Time
	// Backlogged reports that more input was already buffered behind this
	// frame when the poller decoded it: the one case in which handing the
	// request to another thread buys overlap (core.DispatchAuto).
	Backlogged bool

	id   uint64
	conn *serverConn
	// Caller span context, packed: a server only chains from the trace
	// ID, the caller's span ID, and the flags — the caller's own parent
	// link never matters past the wire, and dropping it keeps this
	// per-request struct a whole size class smaller.
	traceID    uint64
	spanID     uint64
	traceFlags uint8
	replied    bool
	buf        *Buf // backs Payload; released once the reply is on the write path
}

// TraceContext returns the caller's span context as carried on the frame:
// the context of the CLIENT span that issued this RPC.  A server records
// its own span as TraceContext().Child().  Zero for untraced requests.
func (r *Request) TraceContext() trace.SpanContext {
	return trace.SpanContext{TraceID: r.traceID, SpanID: r.spanID, Flags: r.traceFlags}
}

// Reply sends a successful response.  It is safe to call from any goroutine
// but must be called exactly once per request.  The payload is copied into
// the connection's write buffer before Reply returns, so the caller may
// immediately reuse (or recycle) its storage — and may pass a reply that
// aliases the request's Payload, which dies only after that copy.
func (r *Request) Reply(payload []byte) {
	if r.replied {
		return
	}
	r.conn.send(kindResponse, r.id, payload)
	r.finish()
}

// ReplyError sends an error response.  An OverloadError travels as a typed
// kindReject frame so the client can distinguish a deliberate shed from an
// application failure; everything else is a kindError.
func (r *Request) ReplyError(err error) {
	if r.replied {
		return
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		r.conn.send(kindReject, r.id, []byte(oe.Msg))
	} else {
		r.conn.send(kindError, r.id, []byte(err.Error()))
	}
	r.finish()
}

// finish marks the request answered and lets go of its payload bytes.
func (r *Request) finish() {
	r.replied = true
	r.buf.Release()
	r.conn.srv.probe.ObserveSince(telemetry.OverheadNet, r.Arrival)
}

// HoldPayload takes a reference on the buffer behind Payload for a holder
// that may read the bytes after the reply — a fan-out whose late hedge or
// retry re-sends them, a batch queue they sit in — and Releases it when the
// last such reader is done.  Nil once the request has been answered: Payload
// is dead by then (a nil *Buf is safe to Release).  Like Reply, it is for
// the goroutine that currently owns the request.
func (r *Request) HoldPayload() *Buf {
	if r.replied || r.buf == nil {
		return nil
	}
	r.buf.Retain()
	return r.buf
}

// Handler processes one request.  It runs on the network poller goroutine of
// the connection that received the frame, and may reply there or hand the
// request on; frames behind this one are read once it returns.
type Handler func(*Request)

// ServerOptions configures a Server.
type ServerOptions struct {
	// Probe receives telemetry; nil disables instrumentation.
	Probe *telemetry.Probe
	// DisableWriteCoalesce reverts to one write syscall per response frame
	// instead of coalescing concurrent responses into batched writes.
	DisableWriteCoalesce bool
}

// Server accepts connections and feeds decoded requests to its handler.
type Server struct {
	handler  Handler
	probe    *telemetry.Probe
	coalesce bool

	mu     sync.Mutex
	lis    net.Listener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server that invokes handler for every request.
func NewServer(handler Handler, opts *ServerOptions) *Server {
	var probe *telemetry.Probe
	coalesce := true
	if opts != nil {
		probe = opts.Probe
		coalesce = !opts.DisableWriteCoalesce
	}
	return &Server{
		handler:  handler,
		probe:    probe,
		coalesce: coalesce,
		conns:    make(map[*serverConn]struct{}),
	}
}

// Start listens on addr ("host:port"; ":0" picks a free port), serves in the
// background, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return "", errors.New("rpc: server already closed")
	}
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(lis)
	}()
	return lis.Addr().String(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		sc := &serverConn{
			srv:  s,
			conn: conn,
			br:   bufio.NewReaderSize(&countingConn{Conn: conn, probe: s.probe}, 64<<10),
		}
		if s.coalesce {
			sc.wq = newWriteQueue(conn, s.probe, func(error) { conn.Close() })
		} else {
			sc.wmu = telemetry.NewMutex(s.probe)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		// One network poller thread per connection; spawning it is the
		// clone(2) analog.
		s.probe.Add(telemetry.SysClone, 1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.readLoop()
		}()
	}
}

// Close stops accepting, closes every connection, and waits for pollers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serverConn is one accepted connection: a blocking reader (network poller)
// plus either a coalescing write queue or (with coalescing disabled) a
// write lock shared by whichever goroutines send responses.
type serverConn struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	wq   *writeQueue
	wmu  *telemetry.Mutex
	wbuf []byte
}

// readLoop is the network poller: it blocks on the socket awaiting work and
// hands each decoded request to the server handler.
func (sc *serverConn) readLoop() {
	defer func() {
		sc.conn.Close()
		sc.srv.probe.Add(telemetry.SysClose, 1)
		sc.srv.dropConn(sc)
	}()
	var f frame
	defer func() { f.take().Release() }()
	for {
		if err := readFrame(sc.br, &f, sc.srv.probe); err != nil {
			return // EOF, a closed connection or a malformed frame: nothing to salvage
		}
		if f.kind != kindRequest && f.kind != kindRequestTraced {
			continue // tolerate stray frames
		}
		sc.srv.handler(&Request{
			Method:     f.method,
			Payload:    f.payload,
			Arrival:    time.Now(),
			Backlogged: sc.br.Buffered() > 0,
			id:         f.id,
			conn:       sc,
			traceID:    f.sc.TraceID,
			spanID:     f.sc.SpanID,
			traceFlags: f.sc.Flags,
			buf:        f.take(),
		})
	}
}

// send serializes one response frame onto the connection.  With coalescing,
// concurrent response threads append under a short lock and share one write
// syscall; the uncoalesced fallback contends on the write mutex per frame —
// the socket-lock futex/HITM source the paper identifies.
func (sc *serverConn) send(kind byte, id uint64, payload []byte) {
	if sc.wq != nil {
		_ = sc.wq.enqueue(kind, id, trace.SpanContext{}, "", payload)
		return
	}
	sc.wmu.Lock()
	err := writeFrame(sc.conn, &sc.wbuf, kind, id, trace.SpanContext{}, "", payload, sc.srv.probe)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}
