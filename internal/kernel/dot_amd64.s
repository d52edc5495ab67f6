//go:build amd64

#include "textflag.h"

// func dotSIMD(a, b *float32, n int) float32
// n must be a positive multiple of 8.  Four YMM accumulators hide FMA
// latency across 32-element blocks; leftover 8-element blocks drain through
// one accumulator; a horizontal reduction produces the scalar sum.
TEXT ·dotSIMD(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $5, DX        // 32-element blocks
	JZ   tail8

loop32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  loop32

tail8:
	ANDQ $31, CX
	SHRQ $3, CX        // remaining 8-element blocks
	JZ   reduce

loop8:
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop8

reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// rowsAhead is how many rows ahead of the one being reduced dotRows
// prefetches.  BenchmarkScanSubsetGather chose it (DESIGN §5.5 "The gather
// kernel" has the sweep); it is a constant, not an option.
#define rowsAhead 12

// func dotRows(data *float32, dim int, ids *uint32, n int, q *float32, out *float32)
// out[i] = q · data[ids[i]*dim : (ids[i]+1)*dim] for i in [0, n).  dim must be
// a positive multiple of 8 and every id a valid row; the Go wrapper checks
// both.  Each row is reduced exactly as dotSIMD reduces it (four accumulators
// over 32-element blocks, leftover 8-element blocks through the first, the
// same horizontal sum), so out[i] is bit-identical to dotSIMD(q, row, dim).
// What the loop adds is the look-ahead: iteration i first issues PREFETCHT0
// for every cache line of row ids[i+rowsAhead], so by the time that row is
// reduced its lines are in L1 instead of being first touched by the reduce.
// i starts at -rowsAhead, which makes the first iterations a prefetch-only
// warm-up; the look-ahead index is compared with n before ids is read.
TEXT ·dotRows(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), R8
	MOVQ dim+8(FP), R9
	MOVQ ids+16(FP), R10
	MOVQ n+24(FP), R11
	MOVQ q+32(FP), R12
	MOVQ out+40(FP), R13
	TESTQ R11, R11
	JLE  rowsdone
	SHLQ $2, R9            // row size in bytes
	MOVQ $-rowsAhead, AX   // i

rowloop:
	LEAQ rowsAhead(AX), BX
	CMPQ BX, R11
	JGE  reduce1
	MOVL (R10)(BX*4), BX   // ids[i+rowsAhead], zero-extended
	IMULQ R9, BX
	ADDQ R8, BX
	MOVQ R9, DX
prefetchline:
	PREFETCHT0 (BX)
	ADDQ $64, BX
	SUBQ $64, DX
	JG   prefetchline
	// BX+DX is the row's end: its last byte's line covers a row that does
	// not start on a line boundary.
	PREFETCHT0 -1(BX)(DX*1)

reduce1:
	TESTQ AX, AX
	JL   nextrow
	MOVL (R10)(AX*4), SI
	IMULQ R9, SI
	ADDQ R8, SI            // row
	MOVQ R12, DI           // q
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R9, CX
	SHRQ $7, CX            // 32-element blocks
	JZ   rowtail8

rowloop32:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VFMADD231PS (SI), Y4, Y0
	VFMADD231PS 32(SI), Y5, Y1
	VFMADD231PS 64(SI), Y6, Y2
	VFMADD231PS 96(SI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  rowloop32

rowtail8:
	MOVQ R9, CX
	ANDQ $127, CX
	SHRQ $5, CX            // remaining 8-element blocks
	JZ   rowreduce

rowloop8:
	VMOVUPS (DI), Y4
	VFMADD231PS (SI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rowloop8

rowreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (R13)(AX*4)

nextrow:
	INCQ AX
	CMPQ AX, R11
	JL   rowloop

rowsdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
