package postlist

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompressRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{0},
		{0, 1, 2, 3},
		{5},
		{1, 1000, 1000000, 0xFFFFFFFF},
		{7, 8, 9, 4000000000},
	}
	for _, ids := range cases {
		enc, err := CompressIDs(ids)
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		got, err := DecompressIDs(enc)
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("%v → %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("%v → %v", ids, got)
			}
		}
	}
}

func TestCompressRejectsUnsorted(t *testing.T) {
	if _, err := CompressIDs([]uint32{3, 2}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := CompressIDs([]uint32{3, 3}); err == nil {
		t.Fatal("duplicate input accepted")
	}
}

// TestDecompressRejectsGarbage runs the corrupt inputs through both wrappers
// over wire's ascending field: each must report ErrCorruptPostings, and the
// appending one must hand dst back as it came.
func TestDecompressRejectsGarbage(t *testing.T) {
	garbage := [][]byte{
		{},           // no count
		{0xFF},       // truncated varint
		{5, 1, 2},    // count 5 but 2 deltas
		{3, 5, 0, 1}, // zero gap: a duplicate
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // 70-bit varint
		{2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},                               // gap carries past uint32
	}
	for i, g := range garbage {
		if _, err := DecompressIDs(g); !errors.Is(err, ErrCorruptPostings) {
			t.Fatalf("garbage %d: DecompressIDs err = %v", i, err)
		}
		got, err := DecompressIDsInto([]uint32{7, 9}, g)
		if !errors.Is(err, ErrCorruptPostings) || len(got) != 2 || got[0] != 7 || got[1] != 9 {
			t.Fatalf("garbage %d: DecompressIDsInto = %v, %v", i, got, err)
		}
	}
}

// TestCompressionRatio: dense sorted lists must compress far below the raw
// 4 bytes/ID — the reason the scheme exists.
func TestCompressionRatio(t *testing.T) {
	ids := make([]uint32, 10000)
	next := uint32(0)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		next += uint32(1 + rng.Intn(16)) // small gaps, typical for common terms
		ids[i] = next
	}
	enc, err := CompressIDs(ids)
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * len(ids)
	if len(enc) >= raw/3 {
		t.Fatalf("compressed %d bytes vs raw %d — ratio too poor", len(enc), raw)
	}
	t.Logf("compressed %d → %d bytes (%.1fx)", raw, len(enc), float64(raw)/float64(len(enc)))
}

func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		// Sort+dedup to satisfy the input contract.
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		ids := raw[:0]
		for i, v := range raw {
			if i == 0 || v != ids[len(ids)-1] {
				ids = append(ids, v)
			}
		}
		enc, err := CompressIDs(ids)
		if err != nil {
			return false
		}
		got, err := DecompressIDs(enc)
		if err != nil || len(got) != len(ids) {
			return false
		}
		for i := range ids {
			if got[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecompressNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = DecompressIDs(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
