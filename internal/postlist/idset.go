package postlist

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"musuite/internal/wire"
)

// An ID set on the wire — a Set Algebra leaf's intersection, the mid-tier's
// union — is the gap field (CompressIDs) when sparse, and when dense the words
// from its first ID's to its last's, opened by a 0 (an empty gap field is the
// lone byte 0) and formBitmap (DESIGN §5.5.2):
//
//	0, formBitmap, uvarint n, uvarint first>>6, uvarint 8·m, m little-endian uint64 words
const (
	// bitmapBytesPerID: a list is a bitmap when its words cost at most this
	// many bytes an ID (≥ 4 IDs a word); DESIGN §5.5.2 has the sweep.
	bitmapBytesPerID = 2
	formBitmap       = 1
	maxWords         = 1 << 26 // 64-ID words in the uint32 ID space
)

// bitmapWords returns the words [base, base+m) that n ascending IDs from first
// to last occupy, and whether the rule sends them as a bitmap.
func bitmapWords(n int, first, last uint32) (base uint32, m int, ok bool) {
	base, m = first>>6, int(last>>6-first>>6)+1
	return base, m, n > 0 && last >= first && 8*m <= bitmapBytesPerID*n
}

// reserveBitmap appends a bitmap header and m zeroed words, which it returns.
func reserveBitmap(e *wire.Encoder, n int, base uint32, m int) []byte {
	e.Raw([]byte{0, formBitmap})
	e.Uvarint(uint64(n))
	e.Uvarint(uint64(base))
	e.Uvarint(uint64(8 * m))
	at := e.Len()
	return e.Resize(at + 8*m)[at:]
}

// EncodeIDsVia appends table[idx[0]], table[idx[1]], … to e as an ID set, in
// the form the count and first and last values pick, in one pass.  Like
// wire's AscendingUint32sVia (the sparse form) it returns -1, or the index of
// a value out of order with nothing appended.
func EncodeIDsVia(e *wire.Encoder, idx, table []uint32) (bad int) {
	var first, last uint32
	if n := len(idx); n > 0 {
		first, last = table[idx[0]], table[idx[n-1]]
	}
	base, m, ok := bitmapWords(len(idx), first, last)
	if !ok {
		return e.AscendingUint32sVia(idx, table)
	}
	start := e.Len()
	b := reserveBitmap(e, len(idx), base, m)
	lo, prev := base<<6, first
	for i, at := range idx {
		id := table[at]
		if (i > 0 && id <= prev) || id > last { // inside [first, last] is inside b
			e.Resize(start)
			return i
		}
		b[(id-lo)>>3] |= 1 << ((id - lo) & 7)
		prev = id
	}
	return -1
}

// EncodeIDs encodes a strictly ascending list as an ID set.
func EncodeIDs(ids []uint32) ([]byte, error) {
	if _, err := CompressIDs(ids); err != nil { // the order check
		return nil, err
	}
	var e wire.Encoder
	(&SetUnion{lists: [][]uint32{ids}}).Encode(&e)
	return e.Bytes(), nil
}

// DecodeIDs decodes an ID set in either form.  A bitmap's words are checked —
// backed by the bytes, inside the ID space, non-zero at both ends, popcount n —
// before one exact slice is sized: at most eight IDs (32 B) per input byte.
func DecodeIDs(b []byte) ([]uint32, error) {
	if !isBitmap(b) {
		return DecompressIDs(b)
	}
	bm, err := parseBitmap(b)
	if err != nil {
		return nil, err
	}
	return bm.appendTo(make([]uint32, 0, bm.n)), nil
}

func isBitmap(b []byte) bool { return len(b) > 1 && b[0] == 0 }

// bitmap is a checked bitmap-form ID set; words aliases the field's bytes.
type bitmap struct {
	n     int
	base  uint32
	words []byte
}

func parseBitmap(b []byte) (bitmap, error) {
	var d wire.Decoder
	d.Reset(b[2:])
	n, base, size := d.Uvarint(), d.Uvarint(), d.Uvarint()
	if b[1] != formBitmap || d.Err() != nil || size == 0 || size%8 != 0 ||
		size > uint64(d.Remaining()) || base >= maxWords || size/8 > maxWords-base {
		return bitmap{}, ErrCorruptPostings
	}
	words, count := b[len(b)-d.Remaining():][:size], 0
	for i := 0; i < len(words); i += 8 {
		count += bits.OnesCount64(binary.LittleEndian.Uint64(words[i:]))
	}
	if uint64(count) != n || binary.LittleEndian.Uint64(words) == 0 || binary.LittleEndian.Uint64(words[size-8:]) == 0 {
		return bitmap{}, ErrCorruptPostings
	}
	return bitmap{n: count, base: uint32(base), words: words}, nil
}

// appendTo appends the bitmap's IDs to dst, ascending.
func (bm bitmap) appendTo(dst []uint32) []uint32 {
	dst = slices.Grow(dst, bm.n)
	for i := 0; i < len(bm.words); i += 8 {
		first := (bm.base + uint32(i>>3)) << 6
		for w := binary.LittleEndian.Uint64(bm.words[i:]); w != 0; w &= w - 1 {
			dst = append(dst, first+uint32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// SetUnion unites ID sets — the replies a mid-tier merges — on scratch kept
// across Resets.  A bitmap is read in place: it must outlive Encode.
type SetUnion struct {
	lists [][]uint32 // the gap sets' IDs, each list's capacity kept
	maps  []bitmap
	union []uint32
}

// Reset empties u, keeping its scratch.
func (u *SetUnion) Reset() { u.lists, u.maps = u.lists[:0], u.maps[:0] }

// Add takes one ID set: a gap list is decoded, a bitmap checked and kept.
func (u *SetUnion) Add(field []byte) error {
	if isBitmap(field) {
		bm, err := parseBitmap(field)
		if err == nil {
			u.maps = append(u.maps, bm)
		}
		return err
	}
	n := len(u.lists)
	u.lists = slices.Grow(u.lists, 1)[:n+1] // the next list, capacity and all
	var err error
	u.lists[n], err = DecompressIDsInto(u.lists[n][:0], field)
	return err
}

// Encode appends the union of the sets added since Reset to e in the form its
// density picks.  Sets whose count makes their joint span dense meet in one
// pooled bitmap, counted by popcount; otherwise MergeSortedInto unites them.
func (u *SetUnion) Encode(e *wire.Encoder) {
	total, lo, hi := 0, uint32(maxWords), uint32(0) // [lo, hi] in words
	for _, l := range u.lists {
		if len(l) > 0 {
			total += len(l)
			lo, hi = min(lo, l[0]>>6), max(hi, l[len(l)-1]>>6)
		}
	}
	for _, bm := range u.maps {
		total += bm.n
		lo, hi = min(lo, bm.base), max(hi, bm.base+uint32(len(bm.words)>>3)-1)
	}
	if _, m, ok := bitmapWords(total, lo<<6, hi<<6); ok {
		u.encodeBitmap(e, lo, m)
		return
	}
	for _, bm := range u.maps {
		u.lists = append(u.lists, bm.appendTo(nil))
	}
	u.union = MergeSortedInto(u.union[:0], u.lists)
	e.AscendingUint32s(u.union) // ascends: every list did
}

// encodeBitmap is Encode over the pooled bitmap of the m words from lo, whose
// first and last words hold an ID each.  It clears each word it writes out.
func (u *SetUnion) encodeBitmap(e *wire.Encoder, lo uint32, m int) {
	pooled := bitmaps.Get().(*[]uint64)
	defer bitmaps.Put(pooled)
	if cap(*pooled) < m {
		*pooled = make([]uint64, m)
	}
	words, first := (*pooled)[:m], lo<<6
	for _, bm := range u.maps {
		for i, dst := 0, words[bm.base-lo:]; i < len(bm.words); i += 8 {
			dst[i>>3] |= binary.LittleEndian.Uint64(bm.words[i:])
		}
	}
	for _, l := range u.lists {
		for _, id := range l {
			words[(id-first)>>6] |= 1 << ((id - first) & 63)
		}
	}
	n, start := 0, e.Len()
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	b := reserveBitmap(e, n, lo, m)
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[i<<3:], w)
		words[i] = 0
	}
	if _, _, ok := bitmapWords(n, first, first+uint32(m-1)<<6); !ok {
		// IDs shared between sets thinned the union below the rule.
		u.union = bitmap{n: n, base: lo, words: b}.appendTo(u.union[:0])
		e.Resize(start)
		e.AscendingUint32s(u.union)
	}
}
