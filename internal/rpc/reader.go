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

// readBufSize is the read buffer a reader borrows for each read(2): one read
// takes up to this much off the socket, so under load pipelined frames share
// a syscall.
const readBufSize = 64 << 10

// eofCheckInterval bounds how long a parked reader can miss a hang-up.  The
// netpoller's wake-ups carry no flags: a FIN or RST that lands between the
// peer's last bytes and the read that takes them shares their edge, the read
// comes back short, and no later edge reports it.  A write finds out at once
// (the peer resets); an idle connection when this read deadline turns the
// reader out of its callback and it re-enters with a read.
const eofCheckInterval = time.Second

// frameParser cuts frames out of a byte stream delivered in arbitrary
// pieces.  The caller reads into dst() and hands the count to parse; whatever
// a piece leaves unfinished — a split length prefix, a body with bytes still
// to come — is carried to the next piece.  The read buffer is borrowed by dst
// and returned by parse before any frame is delivered, so between reads the
// parser holds at most three bytes of a prefix and the Buf of a body in
// progress.
type frameParser struct {
	probe *telemetry.Probe

	// buf is the borrowed read buffer, nil between reads; buf[r:w] has been
	// read and not yet cut.
	buf  *[readBufSize]byte
	r, w int
	// carry[:ncarry] is what a read left of a length prefix.  Bodies are
	// copied out as they arrive, so nothing else stays behind a cut.
	carry  [3]byte
	ncarry int

	// in is the Buf the body in progress is gathered into, nil between
	// frames; got of its bytes have arrived.
	in  *Buf
	got int
	// firstByte is when the frame in progress was first seen (probed only).
	firstByte time.Time

	// head…tail chain, through Buf.next, the bodies the last read completed
	// and parse has not yet delivered.
	head, tail *Buf
	// f is the frame being delivered; its method string persists across
	// frames (see decode).
	f frame
}

// direct reports that the next read goes straight into the body's own Buf,
// saving the copy and the read buffer: a body with at least a buffer's worth
// still to come.
func (p *frameParser) direct() bool { return p.in != nil && len(p.in.bytes())-p.got >= readBufSize }

// dst returns where the next read lands, borrowing a read buffer (and putting
// the carried prefix at its start) unless the read goes direct.
func (p *frameParser) dst() []byte {
	if p.direct() {
		return p.in.bytes()[p.got:]
	}
	if p.buf == nil {
		p.buf = borrowReadBuf()
		p.w = copy(p.buf[:], p.carry[:p.ncarry])
	}
	return p.buf[p.w:]
}

// returnBuf returns the read buffer, if one is borrowed, keeping in carry
// what a cut left of a length prefix.  A read that took nothing returns it
// too: a reader parks and leaves holding none.
func (p *frameParser) returnBuf() {
	if p.buf == nil {
		return
	}
	p.ncarry = copy(p.carry[:], p.buf[p.r:p.w])
	returnReadBuf(p.buf, p.w)
	p.buf, p.r, p.w = nil, 0, 0
}

// parse takes the n bytes the last read put where dst said.  It cuts every
// frame they complete into its own Buf, returns the read buffer, and only
// then delivers the frames in order, each with whether more input had
// already been read behind it (Request.Backlogged).  deliver owns the frame
// for the duration of the call and keeps its bytes by taking f.buf.  An error
// means the stream is malformed: the frames before the fault are delivered,
// and nothing after it can be framed.
func (p *frameParser) parse(n int, deliver func(f *frame, backlogged bool)) error {
	var err error
	if p.buf == nil {
		p.got += n
		if p.got == len(p.in.bytes()) {
			p.chain()
		}
	} else {
		p.w += n
		err = p.cut()
		p.returnBuf()
	}
	behind := p.ncarry > 0 || p.in != nil
	for p.head != nil {
		p.f.buf, p.head = p.head, p.head.next
		p.f.buf.next = nil
		decodeStart := p.probe.Start()
		if derr := p.f.decode(); derr != nil {
			p.release()
			return derr
		}
		p.probe.ObserveSince(telemetry.OverheadHardirq, decodeStart)
		deliver(&p.f, p.head != nil || behind)
		p.f.take().Release()
	}
	p.tail = nil
	return err
}

// cut moves the bytes read into buf to the bodies they belong to, chaining
// each body it completes.
func (p *frameParser) cut() error {
	for {
		if p.in == nil {
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
			p.in, p.got = grabBuf(body), 0
		}
		n := copy(p.in.bytes()[p.got:], p.buf[p.r:p.w])
		p.got += n
		p.r += n
		if p.got < len(p.in.bytes()) {
			return nil
		}
		p.chain()
	}
}

// chain queues the completed body for delivery.
func (p *frameParser) chain() {
	p.probe.ObserveSince(telemetry.OverheadNetRx, p.firstByte)
	if p.tail == nil {
		p.head = p.in
	} else {
		p.tail.next = p.in
	}
	p.tail, p.in = p.in, nil
}

// release returns everything the parser holds: the read buffer, the body in
// progress, the frame being delivered and any cut frames behind it.
func (p *frameParser) release() {
	p.returnBuf()
	p.in.Release()
	p.in = nil
	p.f.take().Release()
	for p.head != nil {
		b := p.head
		p.head, b.next = b.next, nil
		b.Release()
	}
	p.tail = nil
}

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
// Each read borrows a read buffer, and the buffer is back on the free list
// before the first frame that read completed is delivered, and before the
// reader parks or leaves: a connection costs its readers nothing while idle.
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
	r := &connReader{conn: conn, deliver: deliver, p: frameParser{probe: probe}}
	r.poll = r.readReady
	return r
}

// run reads and delivers frames until the connection ends and reports why:
// io.EOF, a read or framing error, or net.ErrClosed when it was closed
// locally.  Every buffer the reader still held is returned.
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
		if err != nil || n == 0 {
			r.p.returnBuf()
		}
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
		if r.err = r.p.parse(n, r.deliver); r.err != nil {
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
