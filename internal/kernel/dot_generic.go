//go:build !amd64

package kernel

// Non-amd64 builds always take the portable unrolled Go kernel.

func dotSIMD(a, b *float32, n int) float32 { panic("kernel: dotSIMD without SIMD support") }

func dotRows(data *float32, dim int, ids *uint32, n int, q, out *float32) {
	panic("kernel: dotRows without SIMD support")
}

func project8(planes *float32, stride, n8, groups int, v, out *float32) {
	panic("kernel: project8 without SIMD support")
}

func nonNegative8(x *float32, n8 int) uint64 {
	panic("kernel: nonNegative8 without SIMD support")
}

func filterHi(f *hiFilter) { panic("kernel: filterHi without SIMD support") }

func dotRowsSplit(hi, lo *uint16, dim int, ids *uint32, n int, q, out *float32) {
	panic("kernel: dotRowsSplit without SIMD support")
}
