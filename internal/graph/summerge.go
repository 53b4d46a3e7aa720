package graph

// Scan kernels. Every candidate strategy a responder scores costs one
// fused pass over an n-entry running-min vector and one cached distance
// row read at its anchor's offset: merged distance
// m = min(vec[w], row[w] + off), each reachable entry (m < InfDist)
// contributing to the cost. The offset is how weighted caches share raw
// rows (off = w(u,v) − 1 for anchor v; 0 when unweighted), and an
// unreachable row entry plus any offset still loses the min to a vector
// entry, which never exceeds InfDist. Two passes carry the dynamics:
//
//   - SumMerge, the min+sum pass of the SUM cost: the sum of m+1 over
//     reachable entries and their count;
//   - MaxMerge, the min+max pass of the MAX cost: the largest reachable
//     m and the reachable count.
//
// Each dispatches once per call. On amd64 CPUs with AVX2 (probed once
// at start-up, summerge_amd64.go) an assembly body takes the vectors 8
// entries at a time — VPADDD for the offset, VPMINSD for the merge, a
// VPCMPGTD reachability mask — and the Go loop finishes the tail of
// fewer than 8 entries. Elsewhere, and on CPUs without AVX2, the Go loop
// takes the whole vector. No flag, option or environment variable
// selects a path: the CPU decides, and both paths return identical
// results for vector entries in [-1, InfDist], row entries in
// [0, InfDist] and offsets with every finite row entry plus offset
// below InfDist. A vector entry of −1 is the deviating player's own
// column (distance 0 = −1 + 1): it is reachable and contributes 0. The
// tests compare each dispatching kernel with its Go loop and with a
// per-entry oracle.
//
// SumMergeBounded adds bound-driven early termination on top: it runs
// SumMerge over sumBlock-entry strips and, between strips, compares the
// partial sum against the caller's budget plus a monotone suffix lower
// bound on the entries not yet processed — in the style of
// Wilson–Zwick's forward-backward pruning. Soundness contract: a pruned
// scan certifies the true total strictly exceeds the budget, so callers
// minimising over candidates may skip pruned candidates without ever
// rejecting a true minimiser (core/sumkernel.go builds the bounds and
// owns the candidate-scan protocol).

// sumBlock is the strip width of the bounded kernel: the pruning bound
// is re-checked every sumBlock entries. Small enough that a hopeless
// candidate aborts after a fraction of its row, large enough that the
// O(1) check amortises to nothing.
const sumBlock = 64

// SumMerge is the fused min+sum kernel: the distance sum (sum of m+1
// over reachable entries) and reachable count of min(vec, row + off).
// row may be nil, in which case vec is aggregated alone (off is then
// ignored). Entries must lie in the ranges of the file comment.
func SumMerge(vec, row []int32, off int32) (sum int64, reached int) {
	if row == nil {
		row, off = vec, 0 // min(vec, vec) = vec: the row-less pass is the same kernel
	}
	row = row[:len(vec)]
	if !hasAVX2 || len(vec) < 8 {
		return sumMergeGo(vec, row, off)
	}
	k := len(vec) &^ 7
	sum, reached = sumMergeAVX2(vec[:k], row[:k], off)
	if k < len(vec) {
		s, c := sumMergeGo(vec[k:], row[k:], off)
		sum, reached = sum+s, reached+c
	}
	return sum, reached
}

// sumMergeGo is SumMerge's Go loop, for CPUs without AVX2 and for tails.
// The length hint hoists every bounds check out of the loop, and the
// reachability test compiles to arithmetic mask extraction instead of a
// per-entry branch.
func sumMergeGo(vec, row []int32, off int32) (sum int64, reached int) {
	row = row[:len(vec)]
	var s int64
	var c int32
	for w, m := range vec {
		if r := row[w] + off; r < m {
			m = r
		}
		// (m - InfDist) >> 31 is -1 (all ones) exactly for reachable
		// entries: finite distances stay below InfDist and m+1 cannot
		// overflow, so the mask replaces the per-entry branch.
		b := (m - InfDist) >> 31
		s += int64((m + 1) & b)
		c -= b
	}
	return s, int(c)
}

// MaxMerge is the fused min+max kernel: the largest reachable entry of
// min(vec, row + off) (0 when none is reachable) and the reachable
// count. row may be nil, in which case vec is aggregated alone (off is
// then ignored). Entries must lie in the ranges of the file comment.
func MaxMerge(vec, row []int32, off int32) (far int32, reached int) {
	if row == nil {
		row, off = vec, 0
	}
	row = row[:len(vec)]
	if !hasAVX2 || len(vec) < 8 {
		return maxMergeGo(vec, row, off)
	}
	k := len(vec) &^ 7
	far, reached = maxMergeAVX2(vec[:k], row[:k], off)
	if k < len(vec) {
		f, c := maxMergeGo(vec[k:], row[k:], off)
		far, reached = max(far, f), reached+c
	}
	return far, reached
}

// maxMergeGo is MaxMerge's Go loop, for CPUs without AVX2 and for tails:
// the masked entry m&b is m when reachable and 0 otherwise, and 0 never
// exceeds a reachable distance (the −1 column included).
func maxMergeGo(vec, row []int32, off int32) (far int32, reached int) {
	row = row[:len(vec)]
	var f, c int32
	for w, m := range vec {
		if r := row[w] + off; r < m {
			m = r
		}
		b := (m - InfDist) >> 31
		f = max(f, m&b)
		c -= b
	}
	return f, int(c)
}

// SumMergeBounded is SumMerge (row read at offset off) with bound-driven
// early termination, in "total contribution" space: entry m contributes
// m+1 when reachable and cinf when not, so the running total after p
// entries is
// sum + (p - reached)·cinf. suffix[p] must be a lower bound on the total
// contribution of entries p..n-1 for the row being merged (suffix[n] = 0,
// monotone non-increasing in p); after each sumBlock strip the partial
// total plus suffix is compared against budget and the scan aborts once
// it exceeds it.
//
// When pruned is false, sum and reached are exactly SumMerge's. When
// pruned is true the true total contribution strictly exceeds budget —
// the certificate that lets minimising callers skip the candidate.
func SumMergeBounded(vec, row []int32, off int32, suffix []int64, cinf, budget int64) (sum int64, reached int, pruned bool) {
	n := len(vec)
	if row == nil {
		row, off = vec, 0
	}
	for start := 0; start < n; {
		end := min(start+sumBlock, n)
		s, c := SumMerge(vec[start:end], row[start:end], off)
		sum, reached = sum+s, reached+c
		if end < n && sum+int64(end-reached)*cinf+suffix[end] > budget {
			return 0, 0, true
		}
		start = end
	}
	return sum, reached, false
}

// WeightedSumMerge is the weighted fused min+sum kernel of the Section 6
// model: sum over w of weight[w] · contrib(min(vec[w], row[w] + off)),
// where a reachable merged distance m contributes m+1 and an unreachable
// one contributes cinf. row may be nil. Folded (weight 0) vertices
// contribute nothing; the caller zeroes the source's own weight.
func WeightedSumMerge(vec, row []int32, off int32, weight []int64, cinf int64) int64 {
	weight = weight[:len(vec)]
	var s int64
	if row != nil {
		row = row[:len(vec)]
		for w, m := range vec {
			if r := row[w] + off; r < m {
				m = r
			}
			b := int64((m - InfDist) >> 31)
			s += weight[w] * (int64(m+1)&b | cinf&^b)
		}
		return s
	}
	for w, m := range vec {
		b := int64((m - InfDist) >> 31)
		s += weight[w] * (int64(m+1)&b | cinf&^b)
	}
	return s
}

// MinInto folds row, read at offset off, into vec entrywise:
// vec[w] = min(vec[w], row[w] + off). It builds every running-min
// vector the responders scan: the in-anchor fold, the greedy's chosen
// anchors and the enumeration prefix stacks.
func MinInto(vec, row []int32, off int32) {
	row = row[:len(vec)]
	for w, m := range vec {
		if r := row[w] + off; r < m {
			vec[w] = r
		}
	}
}
