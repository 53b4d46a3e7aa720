package core

import (
	"fmt"

	"repro/internal/graph"
)

// Exact best response in the weighted SUM game of Section 6. The folding
// argument needs only single-swap (weak equilibrium) stability, but the
// full best response rounds out the weighted model: it is used by tests
// to confirm that folding cannot create *any* improving deviation on the
// graphs the proofs manipulate, a strictly stronger check than
// WeakDeviation.

// WeightedBestResponse enumerates all C(alive-1, outdeg(u)) strategies of
// u over alive vertices and returns a minimiser with ties broken toward
// the current strategy. maxCandidates guards the enumeration (0 = none).
//
// Candidates are evaluated on the distance-cache deviation engine
// (Deviator.EnsureCache): dist_{G-u} is materialised once and each
// strategy costs one O(n) weighted min-merge over the cached rows —
// folded (weight-0) vertices contribute nothing — instead of a graph
// rebuild plus BFS per candidate. When the cache exceeds
// DefaultCacheBudget that uncached rebuild path runs instead; it is
// also the reference the cached path is tested against (bit-identical
// results, TestWeightedKernelEquivalence).
func (wg *VertexWeighted) WeightedBestResponse(u int, maxCandidates int64) (BestResponse, error) {
	return wg.WeightedBestResponsePooled(u, maxCandidates, nil)
}

// WeightedBestResponsePooled is WeightedBestResponse evaluating on a
// warm CachePool entry instead of a throwaway Deviator: repeated calls
// (the WeightedNashDeviation sweep, analysis audits over a run) reuse
// the pooled G-u rows across players and rounds — one stamp check or
// repair instead of a full matrix fill per call. pool must be an
// unweighted (arc-wise) SUM pool over wg.D's vertex count; nil pool, an
// over-budget player or an arc-weighted pool fall back to the one-shot
// Deviator. All paths are bit-identical.
func (wg *VertexWeighted) WeightedBestResponsePooled(u int, maxCandidates int64, pool *CachePool) (BestResponse, error) {
	if !wg.Alive(u) {
		return BestResponse{}, fmt.Errorf("core: vertex %d is folded away", u)
	}
	b := wg.D.OutDegree(u)
	var targets []int
	for v := 0; v < wg.D.N(); v++ {
		if v != u && wg.Alive(v) {
			targets = append(targets, v)
		}
	}
	space := StrategySpaceSize(len(targets)+1, b)
	if maxCandidates > 0 && space > maxCandidates {
		return BestResponse{}, fmt.Errorf("core: weighted strategy space %d exceeds %d", space, maxCandidates)
	}
	cur := append([]int(nil), wg.D.Out(u)...)
	var dv *Deviator
	if pool != nil && pool.wts == nil {
		// Section-6 weighting is per-vertex over unweighted distances, so
		// only an unweighted pool's rows are the rows this scan needs.
		dv = pool.Acquire(wg.D, u)
	} else {
		dv = NewDeviator(GameOf(wg.D, SUM), wg.D, u)
	}
	defer dv.Release()
	cached := dv.EnsureCache(DefaultCacheBudget)

	// On the cache every cost is one fused O(n) weighted pass over a
	// min-vector of anchor rows. The enumeration keeps a stack of
	// partial min-vectors over the combination prefix (exactly like the
	// exact responder), so a leaf merges only its last row.
	n := wg.D.N()
	cinf := int64(n) * int64(n)
	res := BestResponse{Strategy: cur}
	var vecs [][]int32
	var w0 []int64
	if cached {
		w0 = append([]int64(nil), wg.W...)
		w0[u] = 0 // the source never pays for itself (vec[u] = -1 reads as distance 0)
		vec := getInt32(n)
		copy(vec, dv.inMin)
		for _, v := range cur {
			dv.mergeRow(vec, v)
		}
		res.Current = graph.WeightedSumMerge(vec, nil, 0, w0, cinf)
		putInt32(vec)
		vecs = make([][]int32, b)
		if b > 0 {
			vecs[0] = dv.inMin
			for k := 1; k < b; k++ {
				vecs[k] = getInt32(n)
				defer putInt32(vecs[k])
			}
		}
	} else {
		res.Current = wg.Cost(u)
	}
	res.Cost = res.Current

	comb := make([]int, b)
	trial := make([]int, b)
	var rec func(start, at int)
	rec = func(start, at int) {
		if at == b {
			for i, idx := range comb {
				trial[i] = targets[idx]
			}
			var c int64
			switch {
			case !cached:
				wg.D.SetOut(u, trial)
				c = wg.Cost(u)
			case b == 0:
				c = graph.WeightedSumMerge(dv.inMin, nil, 0, w0, cinf)
			default:
				row, off := dv.row(trial[b-1])
				c = graph.WeightedSumMerge(vecs[b-1], row, off, w0, cinf)
			}
			res.Explored++
			if c < res.Cost {
				res.Cost = c
				res.Strategy = append(res.Strategy[:0:0], trial...)
			}
			return
		}
		for i := start; i <= len(targets)-(b-at); i++ {
			comb[at] = i
			if cached && at < b-1 {
				copy(vecs[at+1], vecs[at])
				dv.mergeRow(vecs[at+1], targets[i])
			}
			rec(i+1, at+1)
		}
	}
	rec(0, 0)
	if !cached {
		wg.D.SetOut(u, cur) // restore
	}
	return res, nil
}

// WeightedNashDeviation searches all alive vertices for an improving
// full-strategy deviation, returning nil if the weighted graph is a Nash
// equilibrium of the weighted SUM game restricted to alive vertices.
func (wg *VertexWeighted) WeightedNashDeviation(maxCandidates int64) (*Deviation, error) {
	return wg.WeightedNashDeviationPooled(maxCandidates, nil)
}

// WeightedNashDeviationPooled is WeightedNashDeviation over a warm
// CachePool (see WeightedBestResponsePooled): the per-player sweep is
// exactly where the throwaway-Deviator cost compounded, n cache fills
// per audit.
func (wg *VertexWeighted) WeightedNashDeviationPooled(maxCandidates int64, pool *CachePool) (*Deviation, error) {
	for u := 0; u < wg.D.N(); u++ {
		if !wg.Alive(u) || wg.D.OutDegree(u) == 0 {
			continue
		}
		br, err := wg.WeightedBestResponsePooled(u, maxCandidates, pool)
		if err != nil {
			return nil, err
		}
		if br.Improves() {
			return &Deviation{Vertex: u, NewStrategy: br.Strategy, OldCost: br.Current, NewCost: br.Cost}, nil
		}
	}
	return nil, nil
}

// UnweightedEquivalent checks that with unit weights and no folds, the
// weighted best response of u agrees in cost with the unweighted SUM
// ExactBestResponse — the consistency bridge between the Section 6 model
// and the main game. It returns both costs.
func (wg *VertexWeighted) UnweightedEquivalent(u int, d *graph.Digraph) (weighted, plain int64, err error) {
	br, err := wg.WeightedBestResponse(u, 0)
	if err != nil {
		return 0, 0, err
	}
	g := GameOf(d, SUM)
	pbr, err := g.ExactBestResponse(d, u, 0)
	if err != nil {
		return 0, 0, err
	}
	return br.Cost, pbr.Cost, nil
}
