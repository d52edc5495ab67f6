package postlist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"musuite/internal/wire"
)

// bitmapField encodes ascending ids in the bitmap form whatever their density.
func bitmapField(ids []uint32) []byte {
	var e wire.Encoder
	base, m := ids[0]>>6, int(ids[len(ids)-1]>>6-ids[0]>>6)+1
	b := reserveBitmap(&e, len(ids), base, m)
	for _, id := range ids {
		off := id - base<<6
		b[off>>3] |= 1 << (off & 7)
	}
	return e.Bytes()
}

// formsOf returns ids as an ID set in each form that can hold it: the gap
// field always, the bitmap when the list is not empty.
func formsOf(ids []uint32) map[string][]byte {
	gaps, _ := CompressIDs(ids)
	forms := map[string][]byte{"gap": gaps}
	if len(ids) > 0 {
		forms["bitmap"] = bitmapField(ids)
	}
	return forms
}

// idSetShape draws an ascending list: each ID of a window of 1–64 words at one
// of a few densities, the window anchored anywhere in uint32 or against either
// end of it.
func idSetShape(r *rand.Rand) []uint32 {
	words := 1 + r.Intn(64)
	window := uint32(64 * words)
	var anchor uint32
	switch r.Intn(3) {
	case 0:
		anchor = uint32(r.Int63n(math.MaxUint32-int64(window))) &^ uint32(r.Intn(2)*63) // word-aligned half the time
	case 1:
		anchor = 0
	case 2:
		anchor = math.MaxUint32 - window + 1 // ends at math.MaxUint32
	}
	var ids []uint32
	density := []float64{0, 0.01, 0.05, 4.0 / 64, 0.1, 0.5, 1}[r.Intn(7)]
	for id := uint32(0); id < window; id++ {
		if r.Float64() < density {
			ids = append(ids, anchor+id)
		}
	}
	if len(ids) > 0 && r.Intn(3) == 0 {
		ids[len(ids)-1] = anchor + window - 1 // the window's last ID
	}
	return ids
}

// TestQuickIDSetRoundTrip: every list decodes back from either form, and
// EncodeIDs — and the leaf's EncodeIDsVia, byte for byte — picks the bitmap
// exactly when its words cost ≤ bitmapBytesPerID bytes an ID: over random
// lists, single IDs, IDs at the 63/64 word edge, lists ending at
// math.MaxUint32, and densities at the threshold and one ID below it.
func TestQuickIDSetRoundTrip(t *testing.T) {
	atThreshold := func(firstWord uint32, m int) []uint32 {
		var ids []uint32
		for w := 0; w < m; w++ {
			for _, bit := range []uint32{0, 21, 42, 63} { // 4 IDs a word
				ids = append(ids, (firstWord+uint32(w))<<6+bit)
			}
		}
		return ids
	}
	fixed := [][]uint32{
		nil, {0}, {63}, {64}, {63, 64}, {math.MaxUint32},
		{0, 1, 2, 3}, {60, 61, 62, 63, 64}, {math.MaxUint32 - 3, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32},
		atThreshold(0, 1), atThreshold(7, 5), atThreshold(1<<26-3, 3),
		atThreshold(7, 5)[1:], atThreshold(1<<26-3, 3)[:11], // one below: the gap field
	}
	check := func(ids []uint32) bool {
		enc, err := EncodeIDs(ids)
		if err != nil {
			t.Errorf("%d IDs from %v: %v", len(ids), ids[:min(len(ids), 1)], err)
			return false
		}
		ok := true
		if len(ids) > 0 {
			_, _, dense := bitmapWords(len(ids), ids[0], ids[len(ids)-1])
			if isBitmap(enc) != dense {
				t.Errorf("%d IDs over words %d–%d: bitmap form %v, rule says %v",
					len(ids), ids[0]>>6, ids[len(ids)-1]>>6, isBitmap(enc), dense)
				ok = false
			}
		}
		// The leaf's mapped encode and the union of one list write the same
		// bytes.
		idx := make([]uint32, len(ids))
		for i := range idx {
			idx[i] = uint32(i)
		}
		var via wire.Encoder
		if bad := EncodeIDsVia(&via, idx, ids); bad != -1 || !bytes.Equal(via.Bytes(), enc) {
			t.Errorf("%d IDs: EncodeIDsVia (bad %d) wrote %d bytes, EncodeIDs %d", len(ids), bad, via.Len(), len(enc))
			ok = false
		}
		forms := formsOf(ids)
		forms["EncodeIDs"] = enc
		for name, field := range forms {
			// A bitmap's decode sizes one exact slice.
			got, err := DecodeIDs(field)
			if err != nil || !slices.Equal(got, ids) || (isBitmap(field) && len(got) != cap(got)) {
				t.Errorf("%s form of %d IDs decodes to %d (cap %d), %v", name, len(ids), len(got), cap(got), err)
				ok = false
			}
		}
		return ok
	}
	for _, ids := range fixed {
		check(ids)
	}
	if len(atThreshold(7, 5)) != 4*5 || !isBitmap(must(EncodeIDs(atThreshold(7, 5)))) || isBitmap(must(EncodeIDs(atThreshold(7, 5)[1:]))) {
		t.Fatal("4 IDs a word is not the threshold")
	}
	prop := func(seed int64) bool { return check(idSetShape(rand.New(rand.NewSource(seed)))) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestEncodeIDsViaRejectsOutOfOrder: a mapped list that does not ascend fails
// with nothing appended in either form — a descent between dense endpoints,
// a value past the last one, a duplicate — and names the position it failed at.
func TestEncodeIDsViaRejectsOutOfOrder(t *testing.T) {
	dense := make([]uint32, 64)
	for i := range dense {
		dense[i] = uint32(100 + i)
	}
	swapped := slices.Clone(dense)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	past := slices.Clone(dense)
	past[5] = 1000
	dup := slices.Clone(dense)
	dup[30] = dup[29]
	idx := make([]uint32, len(dense))
	for i := range idx {
		idx[i] = uint32(i)
	}
	for name, c := range map[string]struct {
		table []uint32
		bad   int
	}{"swapped": {swapped, 11}, "past the last": {past, 5}, "duplicate": {dup, 30}, "descending": {[]uint32{9, 5, 1}, 1}} {
		var e wire.Encoder
		e.Uint8(0xAA)
		if bad := EncodeIDsVia(&e, idx[:len(c.table)], c.table); bad != c.bad || e.Len() != 1 {
			t.Errorf("%s: bad=%d want %d, %d bytes appended", name, bad, c.bad, e.Len()-1)
		}
	}
	var e wire.Encoder
	if bad := EncodeIDsVia(&e, idx, dense); bad != -1 || !isBitmap(e.Bytes()) {
		t.Fatalf("an ascending dense table: bad=%d, bitmap %v", bad, isBitmap(e.Bytes()))
	}
}

// TestDecodeIDsRejectsBadBitmaps: a bitmap that could not have been encoded
// is refused by the front end's decode and the mid-tier's union alike, before
// anything is sized from it.
func TestDecodeIDsRejectsBadBitmaps(t *testing.T) {
	valid := bitmapField([]uint32{64, 65, 66, 67, 200})
	header := func(n, base, size uint64, words ...uint64) []byte {
		var e wire.Encoder
		e.Uint8(0)
		e.Uint8(formBitmap)
		e.Uvarint(n)
		e.Uvarint(base)
		e.Uvarint(size)
		for _, w := range words {
			e.Uint64(w)
		}
		return e.Bytes()
	}
	bad := map[string][]byte{
		"another form":            append([]byte{0, 2}, valid[2:]...),
		"cut in the header":       valid[:3],
		"cut in the words":        valid[:len(valid)-1],
		"popcount above n":        header(3, 1, 16, 0xF, 1),
		"popcount below n":        header(6, 1, 16, 0xF, 1),
		"a zero first word":       header(4, 1, 16, 0, 0xF),
		"a zero last word":        header(4, 1, 16, 0xF, 0),
		"no words":                header(0, 1, 0),
		"a word count past input": header(4, 1, 1<<40, 0xF),
		"a ragged word":           header(4, 1, 12, 0xF, 0),
		"a base word past 2²⁶":    header(4, maxWords, 8, 0xF),
		"words running past 2²⁶":  header(5, maxWords-1, 16, 0xF, 1),
		"a 2⁶⁴ base":              header(4, math.MaxUint64, 8, 0xF),
		"n claiming 2⁶⁴ − 1 IDs":  header(math.MaxUint64, 1, 8, 0xF),
		"a count of IDs past 2³²": header(1<<33, 0, 8, math.MaxUint64),
	}
	for name, field := range bad {
		if ids, err := DecodeIDs(field); !errors.Is(err, ErrCorruptPostings) || ids != nil {
			t.Errorf("%s: DecodeIDs = %d IDs, %v", name, len(ids), err)
		}
		var u SetUnion
		if err := u.Add(field); !errors.Is(err, ErrCorruptPostings) {
			t.Errorf("%s: SetUnion.Add = %v", name, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { DecodeIDs(field) }); allocs != 0 {
			t.Errorf("%s: %v allocations to reject", name, allocs)
		}
	}
	// The last words of the ID space are a valid place to be.
	top := header(5, maxWords-2, 16, 0xF, 1<<63)
	if ids, err := DecodeIDs(top); err != nil || ids[4] != math.MaxUint32 {
		t.Fatalf("a bitmap ending at math.MaxUint32: %v, %v", ids, err)
	}
}

// TestSetUnionEquivalence: the union of shard lists sent in either form, or
// mixed, decodes to MergeSortedInto of the lists — with IDs shared between
// shards, empty shards, shards that cover disjoint stretches, lists ending at
// math.MaxUint32 — its form is the rule's for the union's own count and
// span, and the pooled bitmap goes back all zero.
func TestSetUnionEquivalence(t *testing.T) {
	var u SetUnion
	var e wire.Encoder
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lists := make([][]uint32, 1+r.Intn(6))
		shared := idSetShape(r)
		for s := range lists {
			switch r.Intn(5) {
			case 0: // empty
			case 1:
				lists[s] = shared
			default:
				lists[s] = idSetShape(r)
			}
		}
		u.Reset()
		for _, ids := range lists {
			field := formsOf(ids)["gap"]
			if len(ids) > 0 && r.Intn(2) == 0 {
				field = formsOf(ids)["bitmap"]
			}
			if err := u.Add(field); err != nil {
				t.Errorf("add: %v", err)
				return false
			}
		}
		e.Reset()
		u.Encode(&e)
		want := MergeSortedInto(nil, lists)
		got, err := DecodeIDs(e.Bytes())
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("seed %d: union of %d lists decodes to %d IDs (%v), want %d", seed, len(lists), len(got), err, len(want))
			return false
		}
		if len(want) > 0 {
			if _, _, dense := bitmapWords(len(want), want[0], want[len(want)-1]); isBitmap(e.Bytes()) != dense {
				t.Errorf("seed %d: union of %d IDs: bitmap form %v, rule says %v", seed, len(want), isBitmap(e.Bytes()), dense)
				return false
			}
		}
		pooled := bitmaps.Get().(*[]uint64)
		defer bitmaps.Put(pooled)
		for _, w := range (*pooled)[:cap(*pooled)] {
			if w != 0 {
				t.Errorf("seed %d: the pooled bitmap came back dirty", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
