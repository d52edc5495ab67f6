package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(64)
	e.Uint8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(0xBEEF)
	e.Uint32(0xDEADBEEF)
	e.Uint64(0x0123456789ABCDEF)
	e.Int64(-42)
	e.Uvarint(0)
	e.Uvarint(127)
	e.Uvarint(128)
	e.Uvarint(math.MaxUint64)
	e.Float32(3.5)
	e.Float64(-2.25)

	d := NewDecoder(e.Bytes())
	if d.Uint8() != 0xAB || !d.Bool() || d.Bool() {
		t.Error("uint8/bool mismatch")
	}
	if d.Uint16() != 0xBEEF || d.Uint32() != 0xDEADBEEF || d.Uint64() != 0x0123456789ABCDEF {
		t.Error("fixed ints mismatch")
	}
	if d.Int64() != -42 {
		t.Error("int64 mismatch")
	}
	if d.Uvarint() != 0 || d.Uvarint() != 127 || d.Uvarint() != 128 || d.Uvarint() != math.MaxUint64 {
		t.Error("uvarint mismatch")
	}
	if d.Float32() != 3.5 || d.Float64() != -2.25 {
		t.Error("float mismatch")
	}
	if d.Err() != nil {
		t.Fatalf("err=%v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining=%d", d.Remaining())
	}
}

func TestRoundTripSlices(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte{1, 2, 3})
	e.String("hello μSuite")
	e.Float32s([]float32{1.5, -2.5, 0})
	e.Uint64s([]uint64{0, 1, math.MaxUint64})
	e.Uint32s([]uint32{7, 8})
	e.Strings([]string{"a", "", "ccc"})

	d := NewDecoder(e.Bytes())
	b := d.BytesField()
	if len(b) != 3 || b[2] != 3 {
		t.Errorf("bytes=%v", b)
	}
	if s := d.String(); s != "hello μSuite" {
		t.Errorf("string=%q", s)
	}
	f := d.Float32s()
	if len(f) != 3 || f[1] != -2.5 {
		t.Errorf("float32s=%v", f)
	}
	u := d.Uint64s()
	if len(u) != 3 || u[2] != math.MaxUint64 {
		t.Errorf("uint64s=%v", u)
	}
	u32 := d.Uint32s()
	if len(u32) != 2 || u32[0] != 7 {
		t.Errorf("uint32s=%v", u32)
	}
	ss := d.Strings()
	if len(ss) != 3 || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("strings=%v", ss)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestDecoderCopiesBytes(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte{9, 9, 9})
	raw := e.Bytes()
	d := NewDecoder(raw)
	b := d.BytesField()
	raw[1] = 0 // mutate the backing buffer
	if b[0] != 9 {
		t.Fatal("BytesField aliases the input buffer")
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(12345)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.Uint64()
		if d.Err() != ErrTruncated {
			t.Fatalf("cut=%d err=%v want ErrTruncated", cut, d.Err())
		}
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{})
	_ = d.Uint32()
	if d.Err() == nil {
		t.Fatal("no error on empty read")
	}
	// All further reads return zero values without panicking.
	if d.Uint64() != 0 || d.String() != "" || d.Float32s() != nil {
		t.Fatal("post-error reads returned data")
	}
}

func TestOversizedLengthPrefix(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(uint64(MaxSliceLen) + 1)
	d := NewDecoder(e.Bytes())
	if d.BytesField() != nil || d.Err() != ErrTooLarge {
		t.Fatalf("oversized prefix not rejected: %v", d.Err())
	}
}

func TestMalformedVarint(t *testing.T) {
	// 10 continuation bytes exceed 64 bits.
	buf := make([]byte, 11)
	for i := range buf {
		buf[i] = 0xFF
	}
	d := NewDecoder(buf)
	_ = d.Uvarint()
	if d.Err() != ErrTooLarge {
		t.Fatalf("err=%v", d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset failed")
	}
	e.Uint8(5)
	if e.Len() != 1 || e.Bytes()[0] != 5 {
		t.Fatal("post-reset encode broken")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(u8 uint8, u16 uint16, u32 uint32, u64 uint64, i int64, s string, bs []byte, fs []float32, us []uint64) bool {
		e := NewEncoder(0)
		e.Uint8(u8)
		e.Uint16(u16)
		e.Uint32(u32)
		e.Uint64(u64)
		e.Int64(i)
		e.Uvarint(u64)
		e.String(s)
		e.BytesField(bs)
		e.Float32s(fs)
		e.Uint64s(us)

		d := NewDecoder(e.Bytes())
		if d.Uint8() != u8 || d.Uint16() != u16 || d.Uint32() != u32 || d.Uint64() != u64 {
			return false
		}
		if d.Int64() != i || d.Uvarint() != u64 || d.String() != s {
			return false
		}
		gb := d.BytesField()
		if len(gb) != len(bs) {
			return false
		}
		for k := range bs {
			if gb[k] != bs[k] {
				return false
			}
		}
		gf := d.Float32s()
		if len(gf) != len(fs) {
			return false
		}
		for k := range fs {
			// NaN compares unequal; compare bit patterns instead.
			if math.Float32bits(gf[k]) != math.Float32bits(fs[k]) {
				return false
			}
		}
		gu := d.Uint64s()
		if len(gu) != len(us) {
			return false
		}
		for k := range us {
			if gu[k] != us[k] {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		_ = d.Uvarint()
		_ = d.String()
		_ = d.Float32s()
		_ = d.Uint64s()
		_ = d.Uint32()
		_ = d.BytesField()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode1KVector(b *testing.B) {
	v := make([]float32, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(4100)
		e.Float32s(v)
	}
}

func BenchmarkDecode1KVector(b *testing.B) {
	v := make([]float32, 1024)
	e := NewEncoder(4100)
	e.Float32s(v)
	raw := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw)
		d.Float32s()
	}
}

// TestAscendingUint32sLayout pins the field's bytes — count, first value,
// then gaps, all uvarints — because Set Algebra's replies and HDSearch's leaf
// requests are both this field and a peer decodes what this encoder wrote.
func TestAscendingUint32sLayout(t *testing.T) {
	var e Encoder
	if bad := e.AscendingUint32s([]uint32{5, 6, 300, 300 + 1<<14}); bad != -1 {
		t.Fatalf("bad = %d on an ascending list", bad)
	}
	want := []byte{4, 5, 1, 0xA6, 0x02, 0x80, 0x80, 0x01}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoded % x, want % x", e.Bytes(), want)
	}
	e.Reset()
	e.AscendingUint32s(nil)
	if !bytes.Equal(e.Bytes(), []byte{0}) {
		t.Fatalf("empty list encoded % x", e.Bytes())
	}
}

func TestAscendingUint32sRoundTrip(t *testing.T) {
	prop := func(raw []uint32, prefix []uint32) bool {
		slices.Sort(raw)
		ids := slices.Compact(raw)
		var e Encoder
		if e.AscendingUint32s(ids) != -1 {
			return false
		}
		e.Uint8(0xEE) // the field must stop where it ends
		d := NewDecoder(e.Bytes())
		got := d.AscendingUint32sInto(slices.Clone(prefix))
		return d.Err() == nil && d.Uint8() == 0xEE &&
			slices.Equal(got[:len(prefix)], prefix) && slices.Equal(got[len(prefix):], ids)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// The extremes quick rarely rolls: 0 first, the last uint32, a 5-byte gap.
	for _, ids := range [][]uint32{{0}, {0, 1, 2, 3}, {math.MaxUint32}, {0, math.MaxUint32}, {1, 1000, 1000000, math.MaxUint32}} {
		if !prop(slices.Clone(ids), []uint32{9}) {
			t.Fatalf("%v did not round-trip", ids)
		}
	}
}

// TestAscendingUint32sRejectsUnsorted: the encoder names the first value that
// is not above its predecessor and appends nothing.
func TestAscendingUint32sRejectsUnsorted(t *testing.T) {
	for _, c := range []struct {
		ids []uint32
		bad int
	}{{[]uint32{3, 2}, 1}, {[]uint32{3, 3}, 1}, {[]uint32{1, 5, 9, 9, 2}, 3}} {
		var e Encoder
		e.Uint8(7)
		if bad := e.AscendingUint32s(c.ids); bad != c.bad {
			t.Fatalf("%v: bad = %d, want %d", c.ids, bad, c.bad)
		}
		if !bytes.Equal(e.Bytes(), []byte{7}) {
			t.Fatalf("%v: a rejected list left % x behind", c.ids, e.Bytes())
		}
	}
}

// TestAscendingUint32sRejectsCorrupt: every malformed field fails with a
// sticky error and hands dst back at the length it came with.
func TestAscendingUint32sRejectsCorrupt(t *testing.T) {
	corrupt := map[string][]byte{
		"no count":             {},
		"truncated count":      {0xFF},
		"count past the bytes": {5, 1, 2},
		"count of 2^28":        {0x80, 0x80, 0x80, 0x80, 0x01, 1},
		"truncated gap":        {2, 1, 0x80},
		"zero gap":             {3, 5, 0, 1},
		"gap overflows uint32": {2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"sum overflows uint32": {3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1},
		"six-byte gap":         {2, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"70-bit varint":        {1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, b := range corrupt {
		d := NewDecoder(b)
		got := d.AscendingUint32sInto([]uint32{42})
		if d.Err() == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
		if !slices.Equal(got, []uint32{42}) {
			t.Errorf("%s: dst came back as %v", name, got)
		}
	}
}

// TestFixedWidthSliceLayout pins the bulk slice codecs to the bytes the
// per-element loops they replaced wrote — a uvarint count, then each element
// little-endian — in both directions, and to failing before anything is sized
// when the count is a lie.
func TestFixedWidthSliceLayout(t *testing.T) {
	u32 := []uint32{0, 1, 0x01020304, math.MaxUint32}
	f32 := []float32{0, -1.5, float32(math.Inf(1)), math.SmallestNonzeroFloat32}
	u64 := []uint64{0, 1, 0x0102030405060708, math.MaxUint64}
	for n := 0; n <= len(u32); n++ {
		var bulk, loop Encoder
		// A live prefix: the bulk form must append after it, not over it.
		bulk.String("prefix")
		loop.String("prefix")
		bulk.Uint32s(u32[:n])
		bulk.Float32s(f32[:n])
		bulk.Uint64s(u64[:n])
		loop.Uvarint(uint64(n))
		for _, x := range u32[:n] {
			loop.Uint32(x)
		}
		loop.Uvarint(uint64(n))
		for _, x := range f32[:n] {
			loop.Float32(x)
		}
		loop.Uvarint(uint64(n))
		for _, x := range u64[:n] {
			loop.Uint64(x)
		}
		if !bytes.Equal(bulk.Bytes(), loop.Bytes()) {
			t.Fatalf("n=%d: bulk encoders wrote %x, the element loop %x", n, bulk.Bytes(), loop.Bytes())
		}
		// What the loop wrote, the bulk decoders read — into scratch that is
		// too small, exact, and roomy — and element reads agree.
		for _, room := range []int{0, n, n + 3} {
			d := NewDecoder(loop.Bytes())
			_ = d.String()
			g32 := d.Uint32sInto(make([]uint32, 0, room))
			gf := d.Float32sInto(make([]float32, 0, room))
			g64 := d.Uint64sInto(make([]uint64, 0, room))
			if d.Err() != nil || d.Remaining() != 0 {
				t.Fatalf("n=%d room=%d: err %v, %d bytes left", n, room, d.Err(), d.Remaining())
			}
			if !slices.Equal(g32, u32[:n]) || !slices.Equal(gf, f32[:n]) || !slices.Equal(g64, u64[:n]) {
				t.Fatalf("n=%d room=%d: decoded %v %v %v", n, room, g32, gf, g64)
			}
		}
	}

	reads := []struct {
		name  string
		width int
		read  func(*Decoder) int
	}{
		{"Uint32s", 4, func(d *Decoder) int { return len(d.Uint32s()) }},
		{"Float32s", 4, func(d *Decoder) int { return len(d.Float32s()) }},
		{"Uint64s", 8, func(d *Decoder) int { return len(d.Uint64s()) }},
		{"Uint32sInto", 4, func(d *Decoder) int { return len(d.Uint32sInto(make([]uint32, 0, 4))) }},
		{"Float32sInto", 4, func(d *Decoder) int { return len(d.Float32sInto(make([]float32, 0, 4))) }},
		{"Uint64sInto", 8, func(d *Decoder) int { return len(d.Uint64sInto(make([]uint64, 0, 4))) }},
	}
	for _, r := range reads {
		cut := append([]byte{2}, make([]byte, 2*r.width-1)...) // two elements, the last a byte short
		lie := appendUvarint(nil, MaxSliceLen)                 // 2²⁸ elements, one of them present
		lie = append(lie, make([]byte, r.width)...)
		for what, in := range map[string][]byte{"a truncated last element": cut, "a count beyond the input": lie} {
			var d Decoder
			var n int
			allocs := testing.AllocsPerRun(1, func() { d.Reset(in); n = r.read(&d) })
			if n != 0 || d.Err() != ErrTruncated {
				t.Errorf("%s of %s: %d values, err %v; want none and ErrTruncated", r.name, what, n, d.Err())
			}
			// At most the test's own four-element scratch: nothing of the
			// claimed size was made.
			if allocs > 1 {
				t.Errorf("%s of %s: %v allocations", r.name, what, allocs)
			}
		}
	}
}

// TestAscendingUint32sVia: the mapped form writes exactly the bytes of the
// plain form over the mapped list, and reports the position whose mapped value
// fails to ascend.
func TestAscendingUint32sVia(t *testing.T) {
	table := []uint32{3, 40, 41, 9000, 1 << 31, math.MaxUint32}
	idx := []uint32{0, 2, 3, 5}
	var via, plain Encoder
	via.Uint8(0xAA)
	plain.Uint8(0xAA)
	if bad := via.AscendingUint32sVia(idx, table); bad != -1 {
		t.Fatalf("bad=%d", bad)
	}
	plain.AscendingUint32s([]uint32{3, 41, 9000, math.MaxUint32})
	if !bytes.Equal(via.Bytes(), plain.Bytes()) {
		t.Fatalf("via the table %x, plain %x", via.Bytes(), plain.Bytes())
	}
	before := via.Len()
	if bad := via.AscendingUint32sVia([]uint32{1, 3, 2}, table); bad != 2 || via.Len() != before {
		t.Fatalf("descending mapped value: bad=%d, %d bytes appended", bad, via.Len()-before)
	}
	if bad := via.AscendingUint32sVia(nil, nil); bad != -1 || via.Len() != before+1 {
		t.Fatalf("empty list: bad=%d, %d bytes appended", bad, via.Len()-before)
	}
}

// TestResizeReservesZeroes: growing reserves bytes that read zero even where
// the buffer's spare capacity held old bytes, and setting the length back
// drops what was written past it.
func TestResizeReservesZeroes(t *testing.T) {
	var e Encoder
	e.Raw([]byte{1, 2, 3, 4, 5, 6})
	e.Resize(2)
	if !bytes.Equal(e.Bytes(), []byte{1, 2}) {
		t.Fatalf("shrunk to %x", e.Bytes())
	}
	b := e.Resize(5)
	if !bytes.Equal(b, []byte{1, 2, 0, 0, 0}) || e.Len() != 5 {
		t.Fatalf("regrown over old capacity: %x", b)
	}
	b[4] = 9
	if b = e.Resize(100); len(b) != 100 || b[4] != 9 || !bytes.Equal(b[5:], make([]byte, 95)) {
		t.Fatalf("grown past capacity: %x", b)
	}
}
