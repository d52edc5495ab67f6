package wire

import (
	"bytes"
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
	e.Uint16(512)
	e.Uint32(1 << 20)
	e.Uint64(1 << 40)
	e.Uvarint(300)
	e.Float32(3.5)
	e.Float64(-2.25)
	e.String("method")
	e.BytesField([]byte{1, 2, 3})
	e.Float32s([]float32{1, 2})
	e.Uint32s([]uint32{9, 8})
	e.Uint64s([]uint64{5})
	e.AscendingUint32s([]uint32{0, 1, 200, 1 << 31})
	f.Add(e.Bytes(), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{}, []byte{5, 5, 5})
	// Pathological uvarint: max shift then length-prefix lies.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1}, []byte{5, 9, 9})
	// Ascending fields: a zero gap, and a gap that carries past uint32.
	f.Add([]byte{3, 5, 0, 1}, []byte{14})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1}, []byte{14})

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
				d.Uint16()
			case 3:
				d.Uint32()
			case 4:
				d.Uint64()
			case 5:
				d.Uvarint()
			case 6:
				d.Float32()
			case 7:
				d.Float64()
			case 8:
				_ = d.String()
			case 9:
				if v := d.BytesView(); len(v) > len(data) {
					t.Fatalf("BytesView returned %d bytes from a %d-byte input", len(v), len(data))
				}
			case 10:
				scratchF = d.Float32sInto(scratchF[:0])
			case 11:
				scratchU32 = d.Uint32sInto(scratchU32[:0])
			case 12:
				scratchU64 = d.Uint64sInto(scratchU64[:0])
			case 13:
				d.BytesField()
			case 14:
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
			}
		}
		if d.Err() == nil && d.Remaining() < 0 {
			t.Fatalf("negative Remaining() with nil Err()")
		}
	})
}

// FuzzEncodeDecodeRoundTrip pins the codec pair: anything the Encoder emits
// the Decoder must read back verbatim.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint64(300), []byte("payload"), "method")
	f.Add(uint64(0), []byte{}, "")
	f.Fuzz(func(t *testing.T, v uint64, blob []byte, s string) {
		var e Encoder
		e.Uvarint(v)
		e.BytesField(blob)
		e.String(s)
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
		if d.Err() != nil {
			t.Fatalf("round trip error: %v", d.Err())
		}
	})
}
