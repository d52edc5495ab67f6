//go:build amd64

#include "go_asm.h"
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

// func project8(planes *float32, stride, n8, groups int, v *float32, out *float32)
// out[j] = v · plane j over its first n8 elements, plane j at planes+j·stride
// (stride in elements), for j in [0, 8·groups).  n8 must be a positive
// multiple of 8.  Each plane is reduced exactly as dotSIMD reduces it — the
// same four accumulators over 32-element blocks, leftover 8-element blocks
// through the first, the same additions in the same order — so out[j] is
// dotSIMD(plane j, v, n8)'s bits.  What a group of eight planes shares is
// the work around that: planes j and j+4 (j < 4) are multiplied in one pass,
// each 32-byte load of v feeding both, their halves folded into one register
// ([j's lanes 0–3 + 4–7 | j+4's]); and the four pairs' horizontal sums are
// one VHADDPS tree whose two rounds are dotSIMD's two, leaving the eight
// dots in order in one register.
//
// Registers: R8 the group's first plane, SI the pair's, R9 stride and R14
// 4·stride in bytes, R10 n8, R11 groups left, R12 v, R13 out, AX the pair
// in the group, DI, BX and DX the pass's cursors in v and the two planes;
// Y0–Y3 and Y4–Y7 the pair's accumulators, Y8–Y11 v's blocks, Y12 and Y13
// the tree, Y15 a folded pair.
TEXT ·project8(SB), NOSPLIT, $0-48
	MOVQ planes+0(FP), R8
	MOVQ stride+8(FP), R9
	MOVQ n8+16(FP), R10
	MOVQ groups+24(FP), R11
	MOVQ v+32(FP), R12
	MOVQ out+40(FP), R13
	TESTQ R11, R11
	JLE  projdone
	SHLQ $2, R9            // stride in bytes
	MOVQ R9, R14
	SHLQ $2, R14           // planes j and j+4 apart

projgroup:
	MOVQ R8, SI
	XORQ AX, AX

projpair:
	MOVQ R12, DI           // v
	MOVQ SI, BX            // plane j
	LEAQ (SI)(R14*1), DX   // plane j+4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R10, CX
	SHRQ $5, CX            // 32-element blocks
	JZ   projtail8

projloop32:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS 64(DI), Y10
	VMOVUPS 96(DI), Y11
	VFMADD231PS (BX), Y8, Y0
	VFMADD231PS 32(BX), Y9, Y1
	VFMADD231PS 64(BX), Y10, Y2
	VFMADD231PS 96(BX), Y11, Y3
	VFMADD231PS (DX), Y8, Y4
	VFMADD231PS 32(DX), Y9, Y5
	VFMADD231PS 64(DX), Y10, Y6
	VFMADD231PS 96(DX), Y11, Y7
	ADDQ $128, DI
	ADDQ $128, BX
	ADDQ $128, DX
	DECQ CX
	JNZ  projloop32

projtail8:
	MOVQ R10, CX
	ANDQ $31, CX
	SHRQ $3, CX            // remaining 8-element blocks
	JZ   projfold

projloop8:
	VMOVUPS (DI), Y8
	VFMADD231PS (BX), Y8, Y0
	VFMADD231PS (DX), Y8, Y4
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ  projloop8

projfold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VPERM2F128 $0x20, Y4, Y0, Y1 // [j lanes 0–3 | j+4 lanes 0–3]
	VPERM2F128 $0x31, Y4, Y0, Y2 // [j lanes 4–7 | j+4 lanes 4–7]
	VADDPS Y2, Y1, Y15

	// Pairs 0 and 1 round into Y12, 2 and 3 into Y13, then Y12 and Y13
	// into the eight dots.
	CMPQ AX, $1
	JA   projpair23
	JE   projpair1
	VMOVAPS Y15, Y12
	JMP  projnextpair
projpair1:
	VHADDPS Y15, Y12, Y12
	JMP  projnextpair
projpair23:
	CMPQ AX, $3
	JE   projpair3
	VMOVAPS Y15, Y13
	JMP  projnextpair
projpair3:
	VHADDPS Y15, Y13, Y13
	VHADDPS Y13, Y12, Y12
	VMOVUPS Y12, (R13)

projnextpair:
	ADDQ R9, SI
	INCQ AX
	CMPQ AX, $4
	JL   projpair

	LEAQ (R8)(R14*2), R8   // the next group: eight planes on
	ADDQ $32, R13
	DECQ R11
	JNZ  projgroup

projdone:
	VZEROUPPER
	RET

// func nonNegative8(x *float32, n8 int) uint64
// Bit i of the result is set when x[i] ≥ 0 — an ordered compare, so −0 is
// and a NaN is not — for i < n8, a multiple of 8 from 8 to 64.  The blocks
// are read last first, each one's eight bits shifted in below the ones
// after it.
TEXT ·nonNegative8(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n8+8(FP), CX
	LEAQ -32(SI)(CX*4), SI // the last block
	SHRQ $3, CX
	XORQ AX, AX
	VXORPS Y1, Y1, Y1

signloop:
	VMOVUPS (SI), Y0
	VCMPPS $0x1D, Y1, Y0, Y0 // GE_OQ
	VMOVMSKPS Y0, BX
	SHLQ $8, AX
	ORQ  BX, AX
	SUBQ $32, SI
	DECQ CX
	JNZ  signloop

	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// hiAhead is how many rows ahead of the group it scores filterHi prefetches.
// Swept on ordered-split with the group width (DESIGN §5.5 "Row bytes"); a
// constant, not an option.  ringRows, a power of two, holds the rows from
// the group's first to the last one prefetched.
#define hiAhead 12
#define ringRows 16

// filterHi's frame: the ring of expanded rows and their words' margins, the
// four bounds of a group that kept a row, and what the loops would otherwise
// reload through f.
#define ringID 0
#define ringMargin (4*ringRows)
#define groupBounds (8*ringRows)
#define wordMargin (8*ringRows+16)
#define qnVal (8*ringRows+20)
#define thrVal (8*ringRows+24)
#define keepLo (8*ringRows+28) // byte: kept rows' plane-lo lines are prefetched
#define lastWord (8*ringRows+32) // the store's last word and its rows
#define lastMask (8*ringRows+40)
#define normsPtr (8*ringRows+48)
#define loPtr (8*ringRows+56)
#define keepPtr (8*ringRows+64)
#define keepLen (8*ringRows+72)
#define boundPtr (8*ringRows+80)
#define keptN (8*ringRows+88)
#define negBlk (8*ringRows+96) // −(a row's bytes in 16-element blocks)
#define lastByte (8*ringRows+104) // a row's last byte, from where they end
#define filterFrame 240 // 8·ringRows + 112

// HIROW16(row, ev, od) multiplies the sixteen halves at (row)(CX) — CX the
// block's offset from the end of the row's 16-element blocks — by the
// query's eight even (Y8) and eight odd (Y9) elements into accumulators ev
// and od.  VPSLLD $16 makes floats of the even halves and VPAND 0xFFFF0000
// (Y10) of the odd ones where they stand.  Y11 and Y12 are scratch.  HIMUL16
// starts ev and od with the products.
#define HIROW16(row, ev, od) \
	VMOVDQU (row)(CX*1), Y11 \
	VPSLLD $16, Y11, Y12 \
	VPAND Y10, Y11, Y11 \
	VFMADD231PS Y8, Y12, ev \
	VFMADD231PS Y9, Y11, od

#define HIMUL16(row, ev, od) \
	VMOVDQU (row)(CX*1), Y11 \
	VPSLLD $16, Y11, Y12 \
	VPAND Y10, Y11, Y11 \
	VMULPS Y8, Y12, ev \
	VMULPS Y9, Y11, od

// HIROW8(row, od) is HIROW16 for an 8-element tail at (row), widened in
// order against the query's tail in Y8.
#define HIROW8(row, od) \
	VPMOVZXWD (row), Y11 \
	VPSLLD $16, Y11, Y11 \
	VFMADD231PS Y8, Y11, od

// ROWAT(reg) turns the row in reg into the address where its 16-element
// blocks end (R8 is plane hi advanced by their bytes).
#define ROWAT(reg) \
	IMULQ R9, reg \
	ADDQ R8, reg

// func filterHi(f *hiFilter)
// hiFilter's pass.  An expander walks f's words and masks from the cursor
// into a ring of rows, computing each word's margin once and prefetching
// every line of each row it expands, until the ring holds the next group and
// the hiAhead rows after it.  A group of four rows loads each 32-byte block
// of the query once for the four (qh holds each 16 elements of q as its eight
// even then its eight odd: SplitStore.hiQuery), reduces the rows' eight
// accumulators with one VHADDPS tree into four dots, and turns them into four
// bounds, ((qn + ‖p‖²) − 2·q·p̂) − margin, and a four-bit mask of those not
// above thr (VCMPPS NGT_UQ: a NaN bound is kept).  A last group of 1–3 rows
// scores whatever the ring holds past them — valid rows: it starts zeroed —
// and drops their lanes.  Kept rows and bounds are appended to keep and
// bound, and the rows' plane-lo lines prefetched for the exact pass unless
// thr is +Inf (the fill, which keeps every row for its bound).  The call
// returns after the row that fills keep, the cursor just past it (its word
// found back from the expander's: words ascend), or once the set is spent.
//
// Registers: AX rows scored, R10 rows expanded, R11 the expander's mask,
// R13 its word's first row, R14 the index of the word after it; R8 plane hi
// and R12 qh, each advanced past the 16-element blocks; R9 the row bytes.
TEXT ·filterHi(SB), NOSPLIT, $filterFrame-8
	MOVQ f+0(FP), DI
	MOVQ hiFilter_sp(DI), SI
	MOVQ SplitStore_n(SI), BX
	DECQ BX                // the store's last row
	MOVQ BX, CX
	SHRQ $6, BX
	MOVQ BX, lastWord(SP)
	NOTQ CX
	ANDQ $63, CX           // 63 − (its bit)
	MOVQ $-1, BX
	SHRQ CX, BX
	MOVQ BX, lastMask(SP)
	MOVL hiFilter_qn(DI), BX
	MOVL BX, qnVal(SP)
	MOVL hiFilter_thr(DI), BX
	MOVL BX, thrVal(SP)
	CMPL BX, $0x7F800000
	SETNE keepLo(SP)
	MOVQ SplitStore_norms(SI), BX
	MOVQ BX, normsPtr(SP)
	MOVQ SplitStore_lo(SI), BX
	MOVQ BX, loPtr(SP)
	MOVQ hiFilter_keep(DI), BX
	MOVQ BX, keepPtr(SP)
	MOVQ (hiFilter_keep+8)(DI), BX
	MOVQ BX, keepLen(SP)
	MOVQ hiFilter_bound(DI), BX
	MOVQ BX, boundPtr(SP)
	MOVQ hiFilter_kept(DI), BX
	MOVQ BX, keptN(SP)
	MOVQ SplitStore_dim(SI), R9
	SHLQ $1, R9            // row size in bytes
	MOVQ R9, CX
	ANDQ $31, CX
	DECQ CX
	MOVQ CX, lastByte(SP)
	MOVQ R9, CX
	ANDQ $-32, CX          // the bytes in 16-element blocks
	MOVQ SplitStore_hi(SI), R8
	ADDQ CX, R8
	MOVQ hiFilter_qh(DI), R12
	LEAQ (R12)(CX*2), R12
	NEGQ CX
	MOVQ CX, negBlk(SP)
	VPCMPEQD Y10, Y10, Y10
	VPSLLD $16, Y10, Y10   // 0xFFFF0000 in every lane
	VPXOR Y0, Y0, Y0
	XORQ CX, CX
zeroring:
	VMOVDQU Y0, ringID(SP)(CX*1)
	ADDQ $32, CX
	CMPQ CX, $(4*ringRows)
	JLT  zeroring
	XORQ AX, AX
	XORQ R10, R10
	MOVQ hiFilter_next(DI), R14
	MOVQ hiFilter_m(DI), R11
	TESTQ R11, R11
	JZ   expand
	MOVQ hiFilter_words(DI), SI
	MOVL -4(SI)(R14*4), BX // resuming inside the word before next
	JMP  wordstart

expand:
	LEAQ (hiAhead+4)(AX), BX
	CMPQ R10, BX
	JGE  score
	TESTQ R11, R11
	JNZ  expandrow
	MOVQ f+0(FP), DI
	CMPQ R14, (hiFilter_words+8)(DI)
	JGE  score             // the set is spent
	MOVQ hiFilter_words(DI), SI
	MOVL (SI)(R14*4), BX   // the next word
	INCQ R14
	CMPQ BX, lastWord(SP)
	JHI  pastend
	MOVQ hiFilter_masks(DI), SI
	MOVQ -8(SI)(R14*8), R11
	JNE  wordstart         // flags still CMPQ's
	ANDQ lastMask(SP), R11

wordstart:
	// Word BX: its first row and its margin, qs·resid[w] + (slack[w] + qe).
	MOVQ BX, R13
	SHLQ $6, R13
	MOVQ f+0(FP), DI
	MOVQ hiFilter_sp(DI), SI
	MOVQ SplitStore_resid(SI), CX
	VMOVSS (CX)(BX*4), X11
	VMULSS hiFilter_qs(DI), X11, X11
	MOVQ SplitStore_slack(SI), CX
	VMOVSS (CX)(BX*4), X12
	VADDSS hiFilter_qe(DI), X12, X12
	VADDSS X12, X11, X11
	VMOVSS X11, wordMargin(SP)
	JMP  expand

pastend:
	// Words ascend: this one and every one after it are past the store.
	MOVQ (hiFilter_words+8)(DI), R14
	JMP  score

expandrow:
	BSFQ R11, BX
	LEAQ -1(R11), CX
	ANDQ CX, R11
	ADDQ R13, BX           // the row
	MOVQ R10, CX
	ANDQ $(ringRows-1), CX
	MOVL BX, ringID(SP)(CX*4)
	MOVL wordMargin(SP), DX
	MOVL DX, ringMargin(SP)(CX*4)
	INCQ R10
	ROWAT(BX)
	MOVQ negBlk(SP), CX
prefetchline:
	PREFETCHT0 (BX)(CX*1)
	ADDQ $64, CX
	JMI  prefetchline
	MOVQ lastByte(SP), CX  // its last byte: the stride may step over its line
	PREFETCHT0 (BX)(CX*1)
	JMP  expand

score:
	MOVQ R10, DX
	SUBQ AX, DX            // rows expanded and not yet scored
	JLE  spent
	MOVQ AX, CX
	ANDQ $(ringRows-1), CX
	VMOVUPS ringMargin(SP)(CX*4), X14
	MOVL ringID(SP)(CX*4), SI
	MOVL (ringID+4)(SP)(CX*4), DI
	MOVL (ringID+8)(SP)(CX*4), BX
	MOVL (ringID+12)(SP)(CX*4), DX
	MOVQ normsPtr(SP), CX
	VMOVSS (CX)(SI*4), X13
	VINSERTPS $0x10, (CX)(DI*4), X13, X13
	VINSERTPS $0x20, (CX)(BX*4), X13, X13
	VINSERTPS $0x30, (CX)(DX*4), X13, X13
	VBROADCASTSS qnVal(SP), X11
	VADDPS X13, X11, X13   // qn + ‖p‖²
	ROWAT(SI)
	ROWAT(DI)
	ROWAT(BX)
	ROWAT(DX)
	MOVQ negBlk(SP), CX
	VMOVUPS (R12)(CX*2), Y8
	VMOVUPS 32(R12)(CX*2), Y9
	HIMUL16(SI, Y0, Y1)
	HIMUL16(DI, Y2, Y3)
	HIMUL16(BX, Y4, Y5)
	HIMUL16(DX, Y6, Y7)
	ADDQ $32, CX           // dim ≥ 32: a second block follows

block16:
	VMOVUPS (R12)(CX*2), Y8
	VMOVUPS 32(R12)(CX*2), Y9
	HIROW16(SI, Y0, Y1)
	HIROW16(DI, Y2, Y3)
	HIROW16(BX, Y4, Y5)
	HIROW16(DX, Y6, Y7)
	ADDQ $32, CX
	JNZ  block16

	TESTQ $16, R9          // an 8-element tail
	JZ   reduce
	VMOVUPS (R12), Y8
	HIROW8(SI, Y1)
	HIROW8(DI, Y3)
	HIROW8(BX, Y5)
	HIROW8(DX, Y7)

reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VHADDPS Y2, Y0, Y0
	VHADDPS Y6, Y4, Y4
	VHADDPS Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0      // the four rows' q·p̂
	VADDPS X0, X0, X0
	VSUBPS X0, X13, X0
	VSUBPS X14, X0, X0     // the four bounds
	VBROADCASTSS thrVal(SP), X12
	VCMPPS $0x1a, X12, X0, X11
	VMOVMSKPS X11, SI      // bit j: row AX+j is kept
	MOVQ R10, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JGE  tested
	MOVQ DX, CX            // 1–3 rows: drop the other lanes
	MOVL $1, BX
	SHLQ CX, BX
	DECQ BX
	ANDQ BX, SI

tested:
	TESTQ SI, SI
	JZ   nextgroup
	VMOVUPS X0, groupBounds(SP)

keeprow:
	BSFQ SI, CX            // lane j
	LEAQ (AX)(CX*1), BX
	ANDQ $(ringRows-1), BX
	MOVL ringID(SP)(BX*4), BX
	MOVQ keptN(SP), DX
	MOVQ keepPtr(SP), DI
	MOVL BX, (DI)(DX*4)
	MOVQ boundPtr(SP), DI
	VMOVSS groupBounds(SP)(CX*4), X11
	VMOVSS X11, (DI)(DX*4)
	INCQ DX
	MOVQ DX, keptN(SP)
	CMPB keepLo(SP), $0
	JEQ  keptrow
	IMULQ R9, BX           // its plane-lo lines, for the exact pass
	ADDQ loPtr(SP), BX
	PREFETCHT0 (BX)
	MOVQ R9, DI
prefetchlo:
	PREFETCHT0 -1(BX)(DI*1)
	SUBQ $64, DI
	JGT  prefetchlo

keptrow:
	CMPQ DX, keepLen(SP)
	JGE  full
	LEAQ -1(SI), BX
	ANDQ BX, SI
	JNZ  keeprow

nextgroup:
	ADDQ $4, AX
	JMP  expand

full:
	// keep is full: the cursor goes just past row AX+j.
	LEAQ (AX)(CX*1), BX
	ANDQ $(ringRows-1), BX
	MOVL ringID(SP)(BX*4), CX
	MOVL CX, BX
	SHRL $6, BX            // its word
	MOVQ f+0(FP), DI
	MOVQ DX, hiFilter_kept(DI)
	MOVQ hiFilter_words(DI), SI
	MOVQ R14, DX
findword:
	DECQ DX
	CMPL (SI)(DX*4), BX
	JNE  findword
	LEAQ 1(DX), SI
	MOVQ SI, hiFilter_next(DI)
	MOVQ hiFilter_masks(DI), SI
	MOVQ (SI)(DX*8), SI
	CMPQ BX, lastWord(SP)
	JNE  abovekept
	ANDQ lastMask(SP), SI

abovekept:
	MOVQ $-2, BX
	SHLQ CX, BX            // the word's rows above the kept one
	ANDQ BX, SI
	MOVQ SI, hiFilter_m(DI)
	VZEROUPPER
	RET

spent:
	MOVQ f+0(FP), DI
	MOVQ keptN(SP), DX
	MOVQ DX, hiFilter_kept(DI)
	MOVQ R14, hiFilter_next(DI)
	MOVQ $0, hiFilter_m(DI)
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
