package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"musuite/internal/telemetry"
)

// readBufSize is a connection's read buffer: one read(2) takes up to this
// much off the socket, so under load pipelined frames share a syscall.
const readBufSize = 64 << 10

// eofCheckInterval bounds how long a parked reader can miss a hang-up.  The
// netpoller's wake-ups carry no flags: a FIN or RST that lands between the
// peer's last bytes and the read that takes them shares their edge, the read
// comes back short, and no later edge reports it.  A write finds out at once
// (the peer resets); an idle connection when this read deadline turns the
// reader out of its callback and it re-enters with a read.
const eofCheckInterval = time.Second

// frameParser cuts frames out of a byte stream delivered in arbitrary
// pieces.  The caller reads into dst(), reports the count with advance and
// calls drain; whatever a piece leaves unfinished — a split length prefix, a
// body with bytes still to come — is carried to the next piece.
type frameParser struct {
	probe *telemetry.Probe

	// buf[r:w] has been read and not yet parsed.  Bodies are copied out as
	// they arrive, so what stays behind a drain is at most a partial prefix.
	buf  []byte
	r, w int

	// f is the frame being assembled and then the one being delivered; its
	// method string persists across frames (see decode).
	f frame
	// body is the length of the body being gathered into f.buf, zero between
	// frames; got of its bytes have arrived.
	body, got int
	// firstByte is when the frame in progress was first seen (probed only).
	firstByte time.Time
}

// direct reports that the next read goes straight into the frame's own Buf,
// saving the copy: a body with at least a buffer's worth still to come (which
// finds the buffer empty — drain has moved everything read into the Buf).
func (p *frameParser) direct() bool { return p.body-p.got >= len(p.buf) }

// dst returns where the next read lands.
func (p *frameParser) dst() []byte {
	if p.direct() {
		return p.f.buf.bytes()[p.got:]
	}
	if p.r == p.w {
		p.r, p.w = 0, 0
	} else if p.r > 0 {
		p.w = copy(p.buf, p.buf[p.r:p.w])
		p.r = 0
	}
	return p.buf[p.w:]
}

// advance records that n bytes were read into the last dst.
func (p *frameParser) advance(n int) {
	if p.direct() {
		p.got += n
	} else {
		p.w += n
	}
}

// drain hands every frame completed by the bytes read so far to deliver, with
// whether more input was already buffered behind it (Request.Backlogged).
// deliver owns the frame for the duration of the call and keeps its bytes by
// taking f.buf.  An error means the stream is malformed: nothing after it can
// be framed.
func (p *frameParser) drain(deliver func(f *frame, backlogged bool)) error {
	for {
		if p.body == 0 {
			if p.w-p.r < 4 {
				return nil
			}
			p.firstByte = p.probe.Start()
			h := p.buf[p.r:]
			body := int(h[0]) | int(h[1])<<8 | int(h[2])<<16 | int(h[3])<<24
			if body < 1+8+2 {
				return fmt.Errorf("rpc: malformed frame body length %d", body)
			}
			if body > MaxFrameSize {
				return ErrFrameTooLarge
			}
			p.r += 4
			p.f.buf = grabBuf(body)
			p.body, p.got = body, 0
		}
		n := copy(p.f.buf.bytes()[p.got:], p.buf[p.r:p.w])
		p.got += n
		p.r += n
		if p.got < p.body {
			return nil
		}
		p.body = 0
		p.probe.ObserveSince(telemetry.OverheadNetRx, p.firstByte)
		decodeStart := p.probe.Start()
		if err := p.f.decode(); err != nil {
			return err
		}
		p.probe.ObserveSince(telemetry.OverheadHardirq, decodeStart)
		deliver(&p.f, p.w > p.r)
		p.f.take().Release()
	}
}

// release returns the buffer of a frame the stream ended in the middle of.
func (p *frameParser) release() { p.f.take().Release() }

// connReader is the read side of one connection, client or server; the
// goroutine that calls run is the connection's network poller (DESIGN §5.3,
// "How a connection is read").
//
// The whole read→decode→deliver loop runs inside one syscall.RawConn.Read
// callback.  The callback reads until a read comes back short — the socket is
// drained, epoll(7)'s rule for EPOLLET stream sockets — and returns false,
// which parks the goroutine until the next readiness edge; net.Conn.Read
// would first ask the kernel for bytes it was just told are not there, one
// EAGAIN per park.  A stale edge (raised for bytes an earlier read took)
// costs one such EAGAIN and a re-park; an edge that arrives during delivery is
// kept by the poll descriptor.  RawConn.Read is entered once, not per frame:
// entering resets the descriptor, and a reader that then parked would sleep
// through an edge that arrived since its last read.
//
// Frames are delivered — handlers and response hooks run — inside the
// callback, with the descriptor's read lock held, and net.Conn.Close waits
// for that lock.  So nothing on the reader's goroutine may close the
// connection: teardown from there is hangUp, and the reader's owner closes
// once run has returned.
type connReader struct {
	conn    *net.TCPConn
	deliver func(f *frame, backlogged bool)
	// poll is r.readReady, bound once: a method value made per park would
	// be an allocation per park.
	poll func(fd uintptr) bool
	p    frameParser
	err  error // why the callback ended the loop
}

func newConnReader(conn *net.TCPConn, probe *telemetry.Probe, deliver func(f *frame, backlogged bool)) *connReader {
	r := &connReader{conn: conn, deliver: deliver, p: frameParser{probe: probe, buf: make([]byte, readBufSize)}}
	r.poll = r.readReady
	return r
}

// run reads and delivers frames until the connection ends and reports why:
// io.EOF, a read or framing error, or net.ErrClosed when it was closed
// locally.  Every frame buffer the reader still held is released.
func (r *connReader) run() error {
	defer r.p.release()
	rc, err := r.conn.SyscallConn()
	if err != nil {
		return err
	}
	for {
		r.conn.SetReadDeadline(time.Now().Add(eofCheckInterval))
		err := rc.Read(r.poll)
		if r.err != nil {
			return r.err
		}
		// The callback did not end the loop, so the netpoller did: the
		// connection was closed, or the deadline asks for a look at the
		// socket — which every entry starts with, so the poll descriptor
		// reset that comes with re-entering loses nothing.
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
	}
}

// readReady is the RawConn.Read callback.  It returns true to end the loop
// (r.err says why) and false to park until the socket is readable again.
func (r *connReader) readReady(fd uintptr) bool {
	for {
		dst := r.p.dst()
		// Counted before the call, like every syscall proxy: visible no
		// later than anything the call leads to.
		r.p.probe.Add(telemetry.SysRecvmsg, 1)
		n, err := syscall.Read(int(fd), dst)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return r.park() // first entry, deadline re-entry or stale edge
		case err != nil:
			r.err = os.NewSyscallError("read", err)
			return true
		case n == 0:
			r.err = io.EOF
			return true
		}
		r.p.advance(n)
		if r.err = r.p.drain(r.deliver); r.err != nil {
			return true
		}
		if n < len(dst) {
			return r.park() // short read: the socket is empty
		}
	}
}

// park counts the reader blocking to await work (the epoll_pwait of the
// paper's block-based pollers, and the context switch it implies) and
// returns the callback's "not ready" answer.
func (r *connReader) park() bool {
	r.p.probe.Add(telemetry.SysEpollPwait, 1)
	r.p.probe.Add(telemetry.CtxSwitch, 1)
	return false
}

// hangUp shuts both directions of conn down without closing it, so that it
// never waits for the reader: the peer sees end-of-stream, a parked reader
// wakes to one, and a reader busy delivering finds it at its next read.
func hangUp(conn *net.TCPConn) {
	conn.CloseRead()
	conn.CloseWrite()
}
