#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Both kernels walk vec and row 8 entries at a time with index AX up to
// CX = len(vec)&^7, add the row offset broadcast in Y9 to each row strip
// before the min, and keep InfDist broadcast in Y14 for the
// reachability mask Y1 = (InfDist > m), all ones on reachable lanes.
// X15 is left alone: Go code outside assembly relies on it being zero.
// Every vector instruction is VEX-encoded (VMOVQ, not MOVQ, between
// general and vector registers): a legacy SSE instruction while the
// upper YMM halves are dirty costs a state transition on older cores.

// func sumMergeAVX2(vec, row []int32, off int32) (sum int64, reached int)
TEXT ·sumMergeAVX2(SB), NOSPLIT, $0-72
	MOVQ vec_base+0(FP), SI
	MOVQ vec_len+8(FP), CX
	MOVQ row_base+24(FP), DI
	MOVL off+48(FP), DX
	VMOVD DX, X9
	VPBROADCASTD X9, Y9
	ANDQ $~7, CX
	XORQ AX, AX
	MOVQ $0x40000000, DX
	VMOVQ DX, X14
	VPBROADCASTD X14, Y14
	VPCMPEQD Y13, Y13, Y13 // all ones: m - (-1) = m + 1
	VPXOR Y10, Y10, Y10    // int64 sums of lanes 0-3
	VPXOR Y11, Y11, Y11    // int64 sums of lanes 4-7
	VPXOR Y12, Y12, Y12    // int32 reachable counts
	TESTQ CX, CX
	JZ sumreduce

sumloop:
	VPADDD (DI)(AX*4), Y9, Y2
	VMOVDQU (SI)(AX*4), Y0
	VPMINSD Y2, Y0, Y0
	VPCMPGTD Y0, Y14, Y1
	VPSUBD Y13, Y0, Y0
	VPAND Y1, Y0, Y0
	VPSUBD Y1, Y12, Y12
	VPMOVSXDQ X0, Y2
	VEXTRACTI128 $1, Y0, X3
	VPMOVSXDQ X3, Y3
	VPADDQ Y2, Y10, Y10
	VPADDQ Y3, Y11, Y11
	ADDQ $8, AX
	CMPQ AX, CX
	JB sumloop

sumreduce:
	VPADDQ Y11, Y10, Y10
	VEXTRACTI128 $1, Y10, X11
	VPADDQ X11, X10, X10
	VPSHUFD $0x4e, X10, X11
	VPADDQ X11, X10, X10
	VMOVQ X10, AX
	MOVQ AX, sum+56(FP)
	VEXTRACTI128 $1, Y12, X1
	VPADDD X1, X12, X12
	VPSHUFD $0x4e, X12, X1
	VPADDD X1, X12, X12
	VPSHUFD $0xb1, X12, X1
	VPADDD X1, X12, X12
	VMOVD X12, AX
	MOVQ AX, reached+64(FP)
	VZEROUPPER
	RET

// func maxMergeAVX2(vec, row []int32, off int32) (far int32, reached int)
TEXT ·maxMergeAVX2(SB), NOSPLIT, $0-72
	MOVQ vec_base+0(FP), SI
	MOVQ vec_len+8(FP), CX
	MOVQ row_base+24(FP), DI
	MOVL off+48(FP), DX
	VMOVD DX, X9
	VPBROADCASTD X9, Y9
	ANDQ $~7, CX
	XORQ AX, AX
	MOVQ $0x40000000, DX
	VMOVQ DX, X14
	VPBROADCASTD X14, Y14
	VPXOR Y10, Y10, Y10 // int32 maxima of the masked entries
	VPXOR Y12, Y12, Y12 // int32 reachable counts
	TESTQ CX, CX
	JZ maxreduce

maxloop:
	VPADDD (DI)(AX*4), Y9, Y2
	VMOVDQU (SI)(AX*4), Y0
	VPMINSD Y2, Y0, Y0
	VPCMPGTD Y0, Y14, Y1
	VPAND Y1, Y0, Y0
	VPMAXSD Y0, Y10, Y10
	VPSUBD Y1, Y12, Y12
	ADDQ $8, AX
	CMPQ AX, CX
	JB maxloop

maxreduce:
	VEXTRACTI128 $1, Y10, X11
	VPMAXSD X11, X10, X10
	VPSHUFD $0x4e, X10, X11
	VPMAXSD X11, X10, X10
	VPSHUFD $0xb1, X10, X11
	VPMAXSD X11, X10, X10
	VMOVD X10, AX
	MOVL AX, far+56(FP)
	VEXTRACTI128 $1, Y12, X1
	VPADDD X1, X12, X12
	VPSHUFD $0x4e, X12, X1
	VPADDD X1, X12, X12
	VPSHUFD $0xb1, X12, X1
	VPADDD X1, X12, X12
	VMOVD X12, AX
	MOVQ AX, reached+64(FP)
	VZEROUPPER
	RET
