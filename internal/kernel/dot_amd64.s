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

// hiAhead is rowsAhead for dotRowsHi, whose rows are half as long: the same
// sweep at 128-byte rows (DESIGN §5.5 "Row bytes") chose it.
#define hiAhead 12

// func dotRowsHi(hi *uint16, dim int, ids *uint32, n int, qh *float32, out *float32)
// dotRows over plane hi of a SplitStore: out[i] = q · p̂, p̂'s elements row
// ids[i]'s 16-bit halves put back at the top of a float32.  A 32-byte load is
// sixteen halves; VPSLLD $16 makes floats of the even ones and a mask of the
// odd ones where they stand, so qh holds each 16 elements of q as its eight
// even then its eight odd (SplitStore.hiQuery).  That is one load, a shift
// and an AND for sixteen elements where widening them (VPMOVZXWD) costs two
// shuffles on the one port that has them — the difference between a kernel
// bound by that port and one bound by memory.  Only a last 8-element block is
// widened, against qh in order.  The loop and the look-ahead are dotRows'; a
// row is dim·2 bytes; the sum's association differs from dotSIMD's, which a
// filter does not mind.
TEXT ·dotRowsHi(SB), NOSPLIT, $0-48
	MOVQ hi+0(FP), R8
	MOVQ dim+8(FP), R9
	MOVQ ids+16(FP), R10
	MOVQ n+24(FP), R11
	MOVQ qh+32(FP), R12
	MOVQ out+40(FP), R13
	TESTQ R11, R11
	JLE  hidone
	SHLQ $1, R9            // row size in bytes
	VPCMPEQD Y8, Y8, Y8
	VPSLLD $16, Y8, Y8     // 0xFFFF0000 in every lane
	MOVQ $-hiAhead, AX     // i

hirowloop:
	LEAQ hiAhead(AX), BX
	CMPQ BX, R11
	JGE  hireduce1
	MOVL (R10)(BX*4), BX   // ids[i+hiAhead], zero-extended
	IMULQ R9, BX
	ADDQ R8, BX
	MOVQ R9, DX
hiprefetchline:
	PREFETCHT0 (BX)
	ADDQ $64, BX
	SUBQ $64, DX
	JG   hiprefetchline
	PREFETCHT0 -1(BX)(DX*1)

hireduce1:
	TESTQ AX, AX
	JL   hinextrow
	MOVL (R10)(AX*4), SI
	IMULQ R9, SI
	ADDQ R8, SI            // row of hi
	MOVQ R12, DI           // qh
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R9, CX
	SHRQ $6, CX            // 32-element blocks
	JZ   hitail16

hiloop32:
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y6
	VPSLLD $16, Y4, Y5     // even elements
	VPAND Y8, Y4, Y4       // odd elements
	VPSLLD $16, Y6, Y7
	VPAND Y8, Y6, Y6
	VFMADD231PS (DI), Y5, Y0
	VFMADD231PS 32(DI), Y4, Y1
	VFMADD231PS 64(DI), Y7, Y2
	VFMADD231PS 96(DI), Y6, Y3
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  hiloop32

hitail16:
	TESTQ $32, R9          // a 16-element block
	JZ   hitail8
	VMOVDQU (SI), Y4
	VPSLLD $16, Y4, Y5
	VPAND Y8, Y4, Y4
	VFMADD231PS (DI), Y5, Y0
	VFMADD231PS 32(DI), Y4, Y1
	ADDQ $32, SI
	ADDQ $64, DI

hitail8:
	TESTQ $16, R9          // an 8-element block
	JZ   hirowreduce
	VPMOVZXWD (SI), Y4
	VPSLLD $16, Y4, Y4
	VFMADD231PS (DI), Y4, Y2

hirowreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (R13)(AX*4)

hinextrow:
	INCQ AX
	CMPQ AX, R11
	JL   hirowloop

hidone:
	VZEROUPPER
	RET

// splitAhead is dotRowsSplit's look-ahead.  Its callers pass a batch of at
// most this many rows, so the warm-up puts every row's plane-lo lines in
// flight before the first reduce (plane hi was streamed moments ago).
#define splitAhead 8

// SPLIT8 reassembles eight elements — the float32 whose halves are at
// off(SI) in plane hi and at the same offset past SI+DX in plane lo — into
// reg, as (hi − lo>>15)<<16 | lo.  Y8 and Y9 are scratch.
#define SPLIT8(off, reg) \
	VPMOVZXWD off(SI), reg \
	VPMOVZXWD off(SI)(DX*1), Y8 \
	VPSRLD $15, Y8, Y9 \
	VPSUBD Y9, reg, reg \
	VPSLLD $16, reg, reg \
	VPOR Y8, reg, reg

// func dotRowsSplit(hi, lo *uint16, dim int, ids *uint32, n int, q *float32, out *float32)
// dotRows over both planes of a SplitStore: each row's float32 elements are
// reassembled in registers and reduced exactly as dotSIMD reduces them, so
// out[i] is bit-identical to dotSIMD(q, the fp32 row, dim).
TEXT ·dotRowsSplit(SB), NOSPLIT, $0-56
	MOVQ hi+0(FP), R8
	MOVQ dim+16(FP), R9
	MOVQ ids+24(FP), R10
	MOVQ n+32(FP), R11
	MOVQ q+40(FP), R12
	MOVQ out+48(FP), R13
	TESTQ R11, R11
	JLE  splitdone
	SHLQ $1, R9            // row size in bytes, either plane
	MOVQ $-splitAhead, AX  // i

splitrowloop:
	LEAQ splitAhead(AX), BX
	CMPQ BX, R11
	JGE  splitreduce1
	MOVL (R10)(BX*4), BX
	IMULQ R9, BX
	ADDQ lo+8(FP), BX
	MOVQ R9, DX
splitprefetchline:
	PREFETCHT0 (BX)
	ADDQ $64, BX
	SUBQ $64, DX
	JG   splitprefetchline
	PREFETCHT0 -1(BX)(DX*1)

splitreduce1:
	TESTQ AX, AX
	JL   splitnextrow
	MOVL (R10)(AX*4), SI
	IMULQ R9, SI
	ADDQ R8, SI            // row of hi
	MOVQ lo+8(FP), DX
	SUBQ R8, DX            // plane lo's distance from plane hi
	MOVQ R12, DI           // q
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R9, CX
	SHRQ $6, CX            // 32-element blocks
	JZ   splittail8

splitloop32:
	SPLIT8(0, Y4)
	SPLIT8(16, Y5)
	SPLIT8(32, Y6)
	SPLIT8(48, Y7)
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  splitloop32

splittail8:
	MOVQ R9, CX
	ANDQ $63, CX
	SHRQ $4, CX            // remaining 8-element blocks
	JZ   splitrowreduce

splitloop8:
	SPLIT8(0, Y4)
	VFMADD231PS (DI), Y4, Y0
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  splitloop8

splitrowreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (R13)(AX*4)

splitnextrow:
	INCQ AX
	CMPQ AX, R11
	JL   splitrowloop

splitdone:
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
