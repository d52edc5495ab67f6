package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// zipfShapes are the shapes the generators draw — the Set Algebra ledger's
// vocabulary (s = 1.3, 3 000 words), the key-value trace's default (s = 1.1,
// 10 000 keys) — and the edges of the table: s barely above 1, a steep s, a
// tiny range, and an imax beyond zipfTableMax, whose rarest values take the
// exact path.
var zipfShapes = []struct {
	s    float64
	imax uint64
}{
	{docZipfS, 2999},
	{kvZipfS, 9999},
	{1.01, 9999},
	{2.5, 99},
	{1.5, 0},
	{1.05, 300_000},
}

// TestZipfMatchesRandZipf: newZipf returns rand.Zipf's values, draw for draw,
// from two generators seeded alike — so it also consumes the same Float64s —
// over 10 M draws a shape.
func TestZipfMatchesRandZipf(t *testing.T) {
	const draws = 10_000_000
	for i, sh := range zipfShapes {
		t.Run(fmt.Sprintf("s=%g/imax=%d", sh.s, sh.imax), func(t *testing.T) {
			seed := int64(101 + i)
			stdlib := rand.New(rand.NewSource(seed))
			want := rand.NewZipf(stdlib, sh.s, 1, sh.imax)
			fast := rand.New(rand.NewSource(seed))
			got := newZipf(fast, sh.s, 1, sh.imax)
			for d := 0; d < draws; d++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("draw %d: %d, rand.Zipf %d", d, g, w)
				}
			}
			// The streams stayed in step: the next raw draw agrees too.
			if a, b := stdlib.Int63(), fast.Int63(); a != b {
				t.Fatalf("after %d draws the streams differ: %d, rand.Zipf's %d", draws, b, a)
			}
		})
	}
}

var zipfSink uint64

// BenchmarkZipf times a draw at the Set Algebra ledger's shape, rand.Zipf's
// and newZipf's.
func BenchmarkZipf(b *testing.B) {
	b.Run("rand", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1, 2999)
		for i := 0; i < b.N; i++ {
			zipfSink += z.Uint64()
		}
	})
	b.Run("table", func(b *testing.B) {
		z := newZipf(rand.New(rand.NewSource(1)), 1.3, 1, 2999)
		for i := 0; i < b.N; i++ {
			zipfSink += z.Uint64()
		}
	})
}
