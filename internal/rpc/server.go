package rpc

import (
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
}

// Server accepts connections and feeds decoded requests to its handler.
type Server struct {
	handler Handler
	probe   *telemetry.Probe

	mu     sync.Mutex
	lis    *net.TCPListener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server that invokes handler for every request.
func NewServer(handler Handler, opts *ServerOptions) *Server {
	var probe *telemetry.Probe
	if opts != nil {
		probe = opts.Probe
	}
	return &Server{
		handler: handler,
		probe:   probe,
		conns:   make(map[*serverConn]struct{}),
	}
}

// Start listens on addr ("host:port"; ":0" picks a free port), serves in the
// background, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	lis := l.(*net.TCPListener)
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

func (s *Server) acceptLoop(lis *net.TCPListener) {
	for {
		conn, err := lis.AcceptTCP()
		if err != nil {
			return
		}
		sc := &serverConn{srv: s, conn: conn}
		// A failed write hangs the connection up and leaves closing it to the
		// poller: the reply that failed may be running on the poller itself.
		sc.wq = newWriteQueue(conn, s.probe, func(error) { hangUp(conn) })
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

// serverConn is one accepted connection: a network poller (readLoop) and a
// coalescing write queue shared by whichever goroutines send responses.
type serverConn struct {
	srv  *Server
	conn *net.TCPConn
	wq   *writeQueue
}

// readLoop is the network poller: it blocks on the socket awaiting work and
// hands each decoded request to the server handler.  It is the one place the
// connection is closed from, apart from Server.Close.
func (sc *serverConn) readLoop() {
	// EOF, a closed connection or a malformed frame: nothing to salvage.
	_ = newConnReader(sc.conn, sc.srv.probe, sc.onFrame).run()
	sc.conn.Close()
	sc.srv.probe.Add(telemetry.SysClose, 1)
	sc.srv.dropConn(sc)
}

// onFrame runs on the poller for every decoded frame.
func (sc *serverConn) onFrame(f *frame, backlogged bool) {
	if f.kind != kindRequest && f.kind != kindRequestTraced {
		return // tolerate stray frames
	}
	sc.srv.handler(&Request{
		Method:     f.method,
		Payload:    f.payload,
		Arrival:    time.Now(),
		Backlogged: backlogged,
		id:         f.id,
		conn:       sc,
		traceID:    f.sc.TraceID,
		spanID:     f.sc.SpanID,
		traceFlags: f.sc.Flags,
		buf:        f.take(),
	})
}

// send queues one response frame: concurrent response threads append under a
// short lock and share one write syscall.  A failed write tears the
// connection down through the queue's onError; the response is lost with it.
func (sc *serverConn) send(kind byte, id uint64, payload []byte) {
	_ = sc.wq.enqueue(kind, id, trace.SpanContext{}, "", payload)
}
