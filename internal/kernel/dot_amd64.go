//go:build amd64

package kernel

// The tuned dot product dispatches to a hand-written AVX2+FMA kernel when
// the CPU supports it (detected once via CPUID below).  The kernel computes
// the same Σ aᵢ·bᵢ reduction as dotGeneric with a different association
// order, so results may differ from the pure-Go path in the last ulps —
// which is why equivalence against the scalar reference is specified with a
// tolerance, while the engine's scan paths stay bit-identical to each other
// (they all call the same dot8).

// dotSIMD computes the dot product of a[0:n]·b[0:n].  n must be a positive
// multiple of 8; the Go wrapper handles tails.  Implemented in dot_amd64.s.
//
//go:noescape
func dotSIMD(a, b *float32, n int) float32

// dotRows computes out[i] = q · row ids[i] of the dim-strided block at data,
// for i in [0, n), prefetching rows a fixed distance ahead of the one it
// reduces.  dim must be a positive multiple of 8, q at least dim long and
// every id a valid row; each out[i] is bit-identical to dotSIMD over that
// row.  Implemented in dot_amd64.s.
//
//go:noescape
func dotRows(data *float32, dim int, ids *uint32, n int, q, out *float32)

// project8 writes out[j] = v · plane j over n8 elements for j in
// [0, 8·groups), plane j at planes+j·stride; n8 must be a positive multiple
// of 8.  Each out[j] is bit-identical to dotSIMD over that plane and v.
// Implemented in dot_amd64.s.
//
//go:noescape
func project8(planes *float32, stride, n8, groups int, v, out *float32)

// nonNegative8 is NonNegative for n8 elements, a multiple of 8 from 8 to
// 64.  Implemented in dot_amd64.s.
//
//go:noescape
func nonNegative8(x *float32, n8 int) uint64

// filterHi is hiFilter's pass, four rows at a time.  The store's dim must be
// a multiple of 8 and at least 32, qh hiQuery's, and bound as long as keep.
// Implemented in dot_amd64.s.
//
//go:noescape
func filterHi(f *hiFilter)

// dotRowsSplit is dotRows over both planes of a SplitStore: each row's
// float32 elements are reassembled in registers, and out[i] is bit-identical
// to dotSIMD over the fp32 row.  dim must be a positive multiple of 8 and
// every id a valid row; the look-ahead covers a whole call of up to 8 rows.
// Implemented in dot_amd64.s.
//
//go:noescape
func dotRowsSplit(hi, lo *uint16, dim int, ids *uint32, n int, q, out *float32)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

func init() {
	// AVX2 FMA needs: CPUID.1:ECX FMA(12), OSXSAVE(27), AVX(28); the OS
	// saving XMM+YMM state (XCR0 bits 1–2); and CPUID.(7,0):EBX AVX2(5).
	_, _, ecx1, _ := cpuidex(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	useSIMD = ebx7&avx2Bit != 0
}
