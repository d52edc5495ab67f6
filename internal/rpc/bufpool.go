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
