//go:build !amd64

package graph

// hasAVX2 is false off amd64: SumMerge and MaxMerge run their Go loops,
// and the compiler drops the calls below.
const hasAVX2 = false

func sumMergeAVX2(vec, row []int32, off int32) (sum int64, reached int) {
	panic("graph: no AVX2 kernel on this architecture")
}

func maxMergeAVX2(vec, row []int32, off int32) (far int32, reached int) {
	panic("graph: no AVX2 kernel on this architecture")
}
