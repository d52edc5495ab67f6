package rpc

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Frame-buffer pooling.  A reader goroutine reads every frame body straight
// into a Buf from a size-classed pool, and the frame's consumer owns that
// Buf from then on — a server Request until its reply is written, a client
// Call until it is released — so reception neither copies nor, in steady
// state, allocates.  Bufs are reference counted because the bytes can have
// several holders: one carrier reply backs many batch members' views, and a
// fan-out's late hedge or retry may re-send a request's payload after the
// reply.

// bufMinBits..bufMaxBits bound the pooled size classes (256 B … 1 MiB).
// Replies above the top class are plainly allocated and never pooled; one
// giant response must not pin a megabyte in every pool shard.
const (
	bufMinBits = 8
	bufMaxBits = 20
)

var bufPools [bufMaxBits - bufMinBits + 1]sync.Pool

// Buf is a pooled, reference-counted byte buffer holding one frame body.
type Buf struct {
	b     []byte
	class int8 // pool index, -1 for unpooled oversize buffers
	refs  atomic.Int32
	// next chains the bodies a frameParser has cut and not yet delivered.
	next *Buf
}

// bufsInUse counts the Bufs taken and not yet released for the last time.
var bufsInUse atomic.Int64

// BufsInUse reports how many frame buffers are held process-wide.  A closed
// deployment holds none: tests assert the count returns to where it started.
func BufsInUse() int64 { return bufsInUse.Load() }

// grabBuf returns a Buf with at least n bytes of capacity, length n, and a
// reference count of one.
func grabBuf(n int) *Buf {
	var b *Buf
	if cls := bufClass(n); cls < 0 {
		b = &Buf{b: make([]byte, n), class: -1}
	} else if v := bufPools[cls].Get(); v == nil {
		b = &Buf{b: make([]byte, n, 1<<(cls+bufMinBits)), class: int8(cls)}
	} else {
		b = v.(*Buf)
		b.b = b.b[:n]
	}
	b.refs.Store(1)
	bufsInUse.Add(1)
	return b
}

// bufClass maps a payload size to its pool index, or -1 for oversize.
func bufClass(n int) int {
	if n > 1<<bufMaxBits {
		return -1
	}
	bitsLen := bits.Len(uint(n - 1))
	if n <= 1<<bufMinBits {
		bitsLen = bufMinBits
	}
	return bitsLen - bufMinBits
}

// bytes returns the buffer's n bytes.
func (b *Buf) bytes() []byte { return b.b }

// Retain adds a reference; every Retain needs a matching Release.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops a reference and recycles the buffer when the last one goes.
// After the caller's Release, any slice aliasing the Buf is invalid: the
// memory may back an unrelated frame on another connection.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	if b.refs.Add(-1) != 0 {
		return
	}
	bufsInUse.Add(-1)
	if b.class < 0 {
		return
	}
	bufPools[b.class].Put(b)
}

// Read buffers.  A reader needs its readBufSize buffer only from a read(2)
// until the frames that read completed are cut into their own Bufs, so it
// borrows one for exactly that span and returns it before delivering
// anything (DESIGN §5.3, "How a connection is read"): a parked reader, a
// running handler or hook and a blocked write hold none, and the buffers
// number about GOMAXPROCS however many connections are open.
//
// The free list is a row of slots, taken and refilled lowest first, so the
// same few buffers circulate.  It is not a sync.Pool: a collection empties a
// sync.Pool, and each buffer it dropped would be allocated again after every
// collection.  Nor does it take a lock: a reader that parked on a
// contended mutex to return its buffer would let other readers borrow past
// it, and the list would grow beyond the readers that can run at once.
var readBufs struct {
	// out shares a cache line with the lowest slots, which every borrow and
	// return touch: one line moves between CPUs instead of two.
	out  atomic.Int64 // borrowed and not yet returned
	free [readBufSlots]atomic.Pointer[[readBufSize]byte]
	made atomic.Int64 // ever allocated
}

// readBufSlots bounds the free list; a buffer returned to a full list is
// left to the collector.
const readBufSlots = 256

// readBufPoison fills the part of a returned read buffer that was read into,
// in a musuite_debug build: whatever still aliases it reads garbage.
const readBufPoison = 0xDB

// ReadBufsInUse reports how many read buffers are borrowed process-wide.  A
// reader holds one only between a read and the cut of what it read, so idle
// and closed connections hold none: tests assert the count returns to where
// it started.
func ReadBufsInUse() int64 { return readBufs.out.Load() }

// borrowReadBuf takes the lowest free read buffer, or a new one.
func borrowReadBuf() *[readBufSize]byte {
	readBufs.out.Add(1)
	for i := range readBufs.free {
		if readBufs.free[i].Load() != nil {
			if b := readBufs.free[i].Swap(nil); b != nil {
				return b
			}
		}
	}
	readBufs.made.Add(1)
	return new([readBufSize]byte)
}

// returnReadBuf puts b in the lowest empty slot; its first dirty bytes were
// read into.
func returnReadBuf(b *[readBufSize]byte, dirty int) {
	if LoudPools {
		for i := range b[:dirty] {
			b[i] = readBufPoison
		}
	}
	for i := range readBufs.free {
		if readBufs.free[i].CompareAndSwap(nil, b) {
			break
		}
	}
	readBufs.out.Add(-1)
}
