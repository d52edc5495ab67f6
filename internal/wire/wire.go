// Package wire implements the compact binary encoding used by the μSuite
// RPC substrate and by every service's request/response messages.  It plays
// the role protobuf serialization plays under gRPC: explicit, deterministic,
// allocation-conscious byte-level encoding with no reflection.
//
// All multi-byte integers are little-endian.  Variable-length integers use
// the unsigned LEB128 scheme (like encoding/binary's Uvarint).  Strings,
// byte slices, and typed slices are length-prefixed with a uvarint.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge reports a length prefix exceeding sanity limits.
var ErrTooLarge = errors.New("wire: length prefix too large")

// ErrNotAscending reports an ascending-uint32 field whose values do not
// strictly ascend within uint32: a zero gap (a duplicate) or a gap that
// carries past the type.
var ErrNotAscending = errors.New("wire: ascending list has a zero or overflowing gap")

// MaxSliceLen bounds any decoded slice length as a corruption guard.
const MaxSliceLen = 1 << 28

// Encoder appends encoded values to a byte slice.  The zero value is ready
// to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// encPool recycles encoders across requests.  Handlers on the hot path
// encode every reply into a pooled encoder and return it once the bytes
// have been consumed (the RPC layer copies the reply into its write buffer
// synchronously), so steady-state encoding allocates nothing.
var encPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

var encodersInUse atomic.Int64

// EncodersInUse reports how many pooled encoders are taken and not yet put
// back, process-wide.  A closed deployment holds none: tests assert the count
// returns to where it started.
func EncodersInUse() int64 { return encodersInUse.Load() }

// GetEncoder returns a reset pooled encoder.  Pair with PutEncoder once the
// encoded bytes are no longer referenced.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	encodersInUse.Add(1)
	return e
}

// PutEncoder recycles e.  The caller must not touch e or any slice obtained
// from e.Bytes() afterwards.  Oversized scratch is dropped rather than
// pooled so one giant reply does not pin its buffer forever.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	encodersInUse.Add(-1)
	if cap(e.buf) <= 1<<20 {
		encPool.Put(e)
	}
}

// Bytes returns the encoded buffer.  The slice aliases internal storage and
// is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Resize sets the encoding's length to n and returns the encoding: bytes past
// the old length read zero; a length set back drops what was written after it.
func (e *Encoder) Resize(n int) []byte {
	if n > len(e.buf) {
		e.buf = append(e.buf, make([]byte, n-len(e.buf))...)
	}
	e.buf = e.buf[:n]
	return e.buf
}

// Uint8 appends one byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint16 appends a little-endian uint16.
func (e *Encoder) Uint16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// Uint32 appends a little-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Uint64 appends a little-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int64 appends a little-endian int64 (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uvarint appends an unsigned LEB128 varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = appendUvarint(e.buf, v) }

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Float32 appends an IEEE-754 float32.
func (e *Encoder) Float32(v float32) { e.Uint32(math.Float32bits(v)) }

// Float64 appends an IEEE-754 float64.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b with no length prefix — for payloads whose framing is
// already part of their own encoding (e.g. compressed posting lists).
func (e *Encoder) Raw(b []byte) {
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// fixed appends the uvarint count n and makes room for n elements of width
// bytes, which it returns for the caller to fill: a fixed-width slice is sized
// once and written by index, not appended to element by element.
func (e *Encoder) fixed(n, width int) []byte {
	e.Uvarint(uint64(n))
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n*width)[:at+n*width]
	return e.buf[at:]
}

// Float32s appends a length-prefixed []float32.
func (e *Encoder) Float32s(v []float32) {
	b := e.fixed(len(v), 4)
	for _, f := range v {
		binary.LittleEndian.PutUint32(b, math.Float32bits(f))
		b = b[4:]
	}
}

// Uint64s appends a length-prefixed []uint64.
func (e *Encoder) Uint64s(v []uint64) {
	b := e.fixed(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, x)
		b = b[8:]
	}
}

// Uint32s appends a length-prefixed []uint32.
func (e *Encoder) Uint32s(v []uint32) {
	b := e.fixed(len(v), 4)
	for _, x := range v {
		binary.LittleEndian.PutUint32(b, x)
		b = b[4:]
	}
}

// AppendAscendingUint32s appends a strictly ascending, duplicate-free
// []uint32 to dst as gaps: uvarint count, uvarint first value, then the
// uvarint difference to each next value.  Sorted IDs have small gaps and a
// small number is one byte, so a posting list or a candidate list at density
// 1/11 costs ~1.1 B per ID against 4 raw.  bad is -1 on success; otherwise it
// is the index of the first value that is not above its predecessor and dst
// is returned at the length it came with.
func AppendAscendingUint32s(dst []byte, ids []uint32) (out []byte, bad int) {
	b, n := reserveGaps(dst, len(ids))
	prev := uint32(0)
	for i, id := range ids {
		if i > 0 && id <= prev {
			return b[:len(dst)], i
		}
		n = putGap(b, n, id-prev)
		prev = id
	}
	return b[:n], -1
}

// appendAscendingVia is AppendAscendingUint32s over table[idx[0]],
// table[idx[1]], …: the same field, the values looked up on the way.  (Its own
// loop: a per-value "is there a table" test costs the plain form a third.)
func appendAscendingVia(dst []byte, idx, table []uint32) (out []byte, bad int) {
	b, n := reserveGaps(dst, len(idx))
	prev := uint32(0)
	for i, at := range idx {
		id := table[at]
		if i > 0 && id <= prev {
			return b[:len(dst)], i
		}
		n = putGap(b, n, id-prev)
		prev = id
	}
	return b[:n], -1
}

// reserveGaps appends the count to dst and makes room for count gaps at their
// worst — five bytes each — so that the encode loop stores by index and never
// grows.  It returns the extended buffer and the offset of the first gap.
func reserveGaps(dst []byte, count int) (b []byte, n int) {
	b = appendUvarint(dst, uint64(count))
	n = len(b)
	return slices.Grow(b, 5*count)[:n+5*count], n
}

// putGap writes gap as a uvarint at b[n:] and returns the offset after it.
func putGap(b []byte, n int, gap uint32) int {
	for ; gap >= 0x80; gap >>= 7 {
		b[n] = byte(gap) | 0x80
		n++
	}
	b[n] = byte(gap)
	return n + 1
}

// AscendingUint32s appends v as an ascending-uint32 field (see
// AppendAscendingUint32s, whose bad it returns; on failure nothing is
// appended).
func (e *Encoder) AscendingUint32s(v []uint32) (bad int) {
	e.buf, bad = AppendAscendingUint32s(e.buf, v)
	return bad
}

// AscendingUint32sVia appends table[idx[0]], table[idx[1]], … as an
// ascending-uint32 field, mapping and gap-encoding in one pass: the form a
// shard takes to answer in global IDs from a result in local ones.  bad
// indexes idx; every idx[i] must be inside table.
func (e *Encoder) AscendingUint32sVia(idx, table []uint32) (bad int) {
	e.buf, bad = appendAscendingVia(e.buf, idx, table)
	return bad
}

// Strings appends a length-prefixed []string.
func (e *Encoder) Strings(v []string) {
	e.Uvarint(uint64(len(v)))
	for _, s := range v {
		e.String(s)
	}
}

// Decoder consumes encoded values from a byte slice.  Decode errors are
// sticky: after the first error every subsequent read returns the zero value
// and Err reports the failure, so callers may decode a whole message and
// check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.  The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset repoints d at b and clears any sticky error, letting callers keep a
// decoder on the stack (or in scratch) instead of allocating one per message.
func (d *Decoder) Reset(b []byte) {
	d.buf, d.off, d.err = b, 0, nil
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint16 reads a little-endian uint16.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// Uint32 reads a little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Uint64 reads a little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Int64 reads a little-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uvarint reads an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		if shift > 63 {
			d.fail(ErrTooLarge)
			return 0
		}
		b := d.take(1)
		if b == nil {
			return 0
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v
		}
		shift += 7
	}
}

// Float32 reads an IEEE-754 float32.
func (d *Decoder) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Float64 reads an IEEE-754 float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

func (d *Decoder) sliceLen() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		d.fail(ErrTooLarge)
		return 0
	}
	return int(n)
}

// BytesField reads a length-prefixed byte slice.  The result is a copy.
func (d *Decoder) BytesField() []byte {
	n := d.sliceLen()
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BytesView reads a length-prefixed byte field without copying: the result
// aliases the decoder's underlying buffer and is valid only as long as that
// buffer is.  The hot-path accessor for decode-in-place.
func (d *Decoder) BytesView() []byte {
	return d.take(d.sliceLen())
}

// prefixedLen reads a uvarint element count and validates that width×n
// bytes actually remain, so a corrupt length prefix fails with ErrTruncated
// before any allocation is sized from it.
func (d *Decoder) prefixedLen(width int) int {
	n := d.sliceLen()
	if d.err != nil {
		return 0
	}
	if n*width > d.Remaining() {
		d.fail(ErrTruncated)
		return 0
	}
	return n
}

// fixedInto reads a uvarint count n and takes the n×width bytes its elements
// occupy — one bounds check for the whole slice — and returns them with dst
// resized to n elements (a new allocation when dst is too small; empty on
// error).
func fixedInto[T any](d *Decoder, dst []T, width int) ([]T, []byte) {
	n := d.prefixedLen(width)
	if cap(dst) < n {
		dst = make([]T, n)
	}
	return dst[:n], d.take(n * width)
}

// Float32sInto reads a length-prefixed []float32 into dst, reusing its
// capacity.  It returns the filled slice (which may be a new allocation when
// dst is too small) — the no-copy decode path for request scratch.
func (d *Decoder) Float32sInto(dst []float32) []float32 {
	dst, b := fixedInto(d, dst, 4)
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	return dst
}

// Uint32sInto reads a length-prefixed []uint32 into dst, reusing capacity.
func (d *Decoder) Uint32sInto(dst []uint32) []uint32 {
	dst, b := fixedInto(d, dst, 4)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b)
		b = b[4:]
	}
	return dst
}

// Uint64sInto reads a length-prefixed []uint64 into dst, reusing capacity.
func (d *Decoder) Uint64sInto(dst []uint64) []uint64 {
	dst, b := fixedInto(d, dst, 8)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	return dst
}

// AscendingUint32sInto reads an ascending-uint32 field, appending the values
// to dst (so a caller reusing scratch passes dst[:0], and one accumulating
// several fields passes what it has).  A count larger than the bytes that
// remain fails before anything is sized from it — every value costs at least
// one byte — so the decode allocates at most 4 B per input byte.  On any
// error dst is returned at its original length.
func (d *Decoder) AscendingUint32sInto(dst []uint32) []uint32 {
	n := d.prefixedLen(1)
	if d.err != nil || n == 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	used, err := readGaps(dst[base:], d.buf[d.off:])
	if err != nil {
		d.fail(err)
		return dst[:base]
	}
	d.off += used
	return dst
}

// readGaps fills out with the running sums of len(out) uvarint gaps read from
// buf and reports how many bytes that took.  It is its own loop rather than
// Uvarint per value because it is the decode side of every candidate list and
// posting list, and gaps between sorted IDs are mostly below 128: one byte,
// taken without entering the varint loop (~1.3 ns per ID against ~4.6).
func readGaps(out []uint32, buf []byte) (used int, err error) {
	prev := uint64(0)
	for i := range out {
		if used >= len(buf) {
			return 0, ErrTruncated
		}
		gap := uint64(buf[used])
		used++
		if gap >= 0x80 {
			gap &= 0x7f
			for shift := uint(7); ; shift += 7 {
				// A uint32 gap is at most five bytes; stopping there also
				// keeps prev+gap from wrapping.
				if shift > 28 {
					return 0, ErrNotAscending
				}
				if used >= len(buf) {
					return 0, ErrTruncated
				}
				b := buf[used]
				used++
				gap |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		prev += gap
		if (gap == 0 && i > 0) || prev > math.MaxUint32 {
			return 0, ErrNotAscending
		}
		out[i] = uint32(prev)
	}
	return used, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.sliceLen()
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Float32s reads a length-prefixed []float32 (nil when empty or on error).
func (d *Decoder) Float32s() []float32 { return d.Float32sInto(nil) }

// Uint64s reads a length-prefixed []uint64 (nil when empty or on error).
func (d *Decoder) Uint64s() []uint64 { return d.Uint64sInto(nil) }

// Uint32s reads a length-prefixed []uint32 (nil when empty or on error).
func (d *Decoder) Uint32s() []uint32 { return d.Uint32sInto(nil) }

// Strings reads a length-prefixed []string.  Each string costs at least one
// length byte, so the element count is validated against Remaining before
// the slice is sized.
func (d *Decoder) Strings() []string {
	n := d.prefixedLen(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
		if d.err != nil {
			return nil
		}
	}
	return out
}
