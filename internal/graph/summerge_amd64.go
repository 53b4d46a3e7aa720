package graph

// hasAVX2 reports whether SumMerge and MaxMerge run their AVX2 bodies.
// It is probed once, at package initialisation, and never changes.
var hasAVX2 = probeAVX2()

// probeAVX2 asks the CPU for AVX2 (CPUID leaf 7, EBX bit 5) and the
// operating system for YMM state: CPUID leaf 1 must report AVX and
// OSXSAVE, and XCR0 (read by XGETBV) must have its SSE and AVX state
// bits set, or the kernel does not save the upper register halves
// across context switches.
func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID for leaf eaxArg and sub-leaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Only call it once
// CPUID has reported OSXSAVE.
func xgetbv() (eax, edx uint32)

// sumMergeAVX2 is SumMerge over the first len(vec)&^7 entries; row must
// be at least that long. Lane sums widen to int64 at every 8-entry step,
// since eight reachable entries near InfDist already exceed 32 bits.
//
//go:noescape
func sumMergeAVX2(vec, row []int32, off int32) (sum int64, reached int)

// maxMergeAVX2 is MaxMerge over the first len(vec)&^7 entries; row must
// be at least that long.
//
//go:noescape
func maxMergeAVX2(vec, row []int32, off int32) (far int32, reached int)
