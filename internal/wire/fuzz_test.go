package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzWireDecoder drives the Decoder through an arbitrary op sequence over
// arbitrary input.  The contract under test is totality: no input and no
// accessor order may panic or allocate out-of-bounds views — a failed read
// sets Err() and yields zero values, nothing more.  The ops byte string
// doubles as the fuzzer's steering wheel: each byte selects the next
// accessor, so coverage feedback can explore interleavings (e.g. a Uvarint
// that leaves the offset mid-varint before a BytesView).
func FuzzWireDecoder(f *testing.F) {
	// A well-formed message touching every field shape.
	var e Encoder
	e.Uint8(7)
	e.Bool(true)
	e.Uint32(1 << 20)
	e.Uint64(1 << 40)
	e.Uvarint(300)
	e.Float32(3.5)
	e.Float64(-2.25)
	e.String("method")
	e.BytesField([]byte{1, 2, 3})
	e.Float32s([]float32{1, 2})
	e.Uint64s([]uint64{5})
	e.AscendingUint32s([]uint32{0, 1, 200, 1 << 31})
	f.Add(e.Bytes(), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12})
	// Fixed-width slices: a count the bytes do not cover, a cut last element.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4}, []byte{13, 13, 14})
	f.Add([]byte{2, 1, 0, 0, 0, 2, 0, 0}, []byte{13})
	f.Add([]byte{}, []byte{4, 4, 4})
	// Pathological uvarint: max shift then length-prefix lies.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1}, []byte{4, 8, 8})
	// Ascending fields: a zero gap, and a gap that carries past uint32.
	f.Add([]byte{3, 5, 0, 1}, []byte{12})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1}, []byte{12})

	f.Fuzz(func(t *testing.T, data []byte, ops []byte) {
		d := NewDecoder(data)
		var scratchF []float32
		var scratchU32 []uint32
		var scratchU64 []uint64
		for _, op := range ops {
			switch op % 15 {
			case 0:
				d.Uint8()
			case 1:
				d.Bool()
			case 2:
				d.Uint32()
			case 3:
				d.Uint64()
			case 4:
				d.Uvarint()
			case 5:
				d.Float32()
			case 6:
				d.Float64()
			case 7:
				_ = d.String()
			case 8:
				if v := d.BytesView(); len(v) > len(data) {
					t.Fatalf("BytesView returned %d bytes from a %d-byte input", len(v), len(data))
				}
			case 9:
				scratchF = d.Float32sInto(scratchF[:0])
			case 10:
				scratchU64 = d.Uint64sInto(scratchU64[:0])
			case 11:
				d.BytesField()
			case 12:
				// Appends: the scratch is deliberately not truncated, so the
				// bound covers what the field added to what was there.
				before := len(scratchU32)
				scratchU32 = d.AscendingUint32sInto(scratchU32)
				if got := scratchU32[before:]; len(got) > len(data) {
					t.Fatalf("AscendingUint32sInto returned %d values from a %d-byte input", len(got), len(data))
				} else {
					for i := 1; i < len(got); i++ {
						if got[i] <= got[i-1] {
							t.Fatalf("AscendingUint32sInto returned %d after %d", got[i], got[i-1])
						}
					}
				}
			// The allocating forms size their result from the count: it must be
			// one the input had the bytes for.
			case 13:
				if v := d.Float32s(); 4*len(v) > len(data) {
					t.Fatalf("Float32s returned %d values from a %d-byte input", len(v), len(data))
				}
			case 14:
				if v := d.Uint64s(); 8*len(v) > len(data) {
					t.Fatalf("Uint64s returned %d values from a %d-byte input", len(v), len(data))
				}
			}
		}
		if d.Err() == nil && d.Remaining() < 0 {
			t.Fatalf("negative Remaining() with nil Err()")
		}
	})
}

// FuzzEncodeDecodeRoundTrip pins the codec pair: anything the Encoder emits
// the Decoder must read back verbatim.  The blob doubles as the elements of the
// fixed-width slices (its bytes, taken four and eight at a time) and of an
// ascending list (its bytes as gaps), so the bulk paths see arbitrary values
// and lengths.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint64(300), []byte("payload"), "method")
	f.Add(uint64(0), []byte{}, "")
	f.Add(uint64(1), []byte{0, 0, 0x80, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0xC0, 0x7F}, "nan")
	f.Fuzz(func(t *testing.T, v uint64, blob []byte, s string) {
		var u64 []uint64
		var f32 []float32
		for b := blob; len(b) >= 4; b = b[4:] {
			f32 = append(f32, math.Float32frombits(binary.LittleEndian.Uint32(b)))
		}
		for b := blob; len(b) >= 8; b = b[8:] {
			u64 = append(u64, binary.LittleEndian.Uint64(b))
		}
		// asc is also its own table, reached through the indexes 0, 1, 2, …
		var asc, idx []uint32
		next := uint32(v)
		for i, gap := range blob {
			if next > math.MaxUint32-uint32(gap)-1 {
				break
			}
			next += uint32(gap) + 1
			asc = append(asc, next)
			idx = append(idx, uint32(i))
		}

		var e Encoder
		e.Uvarint(v)
		e.BytesField(blob)
		e.String(s)
		e.Float32s(f32)
		e.Uint64s(u64)
		direct := e.Len()
		if bad := e.AscendingUint32s(asc); bad != -1 {
			t.Fatalf("AscendingUint32s rejected index %d of %v", bad, asc)
		}
		via := e.Len()
		if bad := e.AscendingUint32sVia(idx, asc); bad != -1 {
			t.Fatalf("AscendingUint32sVia rejected index %d", bad)
		}
		if b := e.Bytes(); !bytes.Equal(b[via:], b[direct:via]) {
			t.Fatalf("the list through a table encoded as %x, directly as %x", b[via:], b[direct:via])
		}
		d := NewDecoder(e.Bytes())
		if got := d.Uvarint(); got != v {
			t.Fatalf("Uvarint: got %d, want %d", got, v)
		}
		if got := d.BytesField(); !bytes.Equal(got, blob) {
			t.Fatalf("BytesField: got %q, want %q", got, blob)
		}
		if got := d.String(); got != s {
			t.Fatalf("String: got %q, want %q", got, s)
		}
		// Floats compare by bits: the blob holds NaNs.
		got32 := d.Float32sInto(make([]float32, 0, 2))
		if len(got32) != len(f32) {
			t.Fatalf("Float32sInto: got %d values, want %d", len(got32), len(f32))
		}
		for i := range f32 {
			if math.Float32bits(got32[i]) != math.Float32bits(f32[i]) {
				t.Fatalf("Float32sInto[%d]: got bits %x, want %x", i, math.Float32bits(got32[i]), math.Float32bits(f32[i]))
			}
		}
		if got := d.Uint64sInto(make([]uint64, 0, 1)); !slices.Equal(got, u64) {
			t.Fatalf("Uint64sInto: got %v, want %v", got, u64)
		}
		for range 2 {
			if got := d.AscendingUint32sInto(nil); !slices.Equal(got, asc) {
				t.Fatalf("AscendingUint32sInto: got %v, want %v", got, asc)
			}
		}
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("round trip: err %v, %d bytes left", d.Err(), d.Remaining())
		}
	})
}
