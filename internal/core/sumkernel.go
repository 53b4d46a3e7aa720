package core

import "repro/internal/graph"

// SUM-side evaluation kernel: the candidate-pruning layer over the
// blocked min-merge kernels of internal/graph (summerge.go).
//
// A SUM candidate scan evaluates every vertex v by one fused min+sum
// pass over the running-min vector and v's cached distance row — O(n)
// per candidate, O(n²) per greedy round, the dominant cost of SUM
// dynamics once PR 4 removed the matrix refills. The pruning layer
// spends O(n) per round to make most of those passes partial:
//
//   - Every cached row entry plus its offset is at least 0 — the floor
//     the bounds start from. For unweighted rows it is exact: every row
//     holds its own source at distance 0. Weighted rows are stored raw
//     and take their offset w(u,v)-1 at merge time, so a column's true
//     floor min_v(d(v,w) + off_v) is often 1 or more; weighted scans
//     prune with 0 all the same — less, never wrongly.
//
//   - Before a scan, tiered suffix bounds are taken over the running
//     min-vector vec. The triangle inequality in G-u gives every
//     candidate v at distance t = vec[v] from the current anchor set a
//     per-entry floor: some anchor a has d(a,v) + off_a = t, and
//     vec[w] <= d(a,w) + off_a <= t + d(v,w) for every w, so
//     row_v[w] + off_v >= vec[w] - t — a candidate close to the anchors
//     cannot improve any entry by more than t (and when vec[w] is
//     infinite, row_v[w] is too, since a reaches v). Tier t's suffix
//     array sums contrib(min(vec[w], max(0, vec[w]-t))) over w >= p: a
//     lower bound on the cost contribution of vertices p..n-1 under
//     any candidate at distance t, with tiers above sumTierCap falling
//     back to the floor alone. Column u (vec[u] = -1) contributes 0
//     in every tier. The bounds are recomputed from the current vec
//     each round — monotone under candidate extension, since vec only
//     decreases entrywise as anchors are chosen.
//
//   - Each candidate then runs graph.SumMergeBounded with its tier's
//     suffix against the incumbent best: hopeless candidates abort on
//     the tier's total alone, the rest typically a small prefix in,
//     once the partial cost plus the suffix bound exceeds the budget.
//     A pruned candidate is certified strictly worse than the
//     incumbent, so minimisation with ties broken toward lower vertex
//     ids is bit-identical to the unpruned scan: candidates achieving
//     the true minimum are never pruned (their bound never exceeds a
//     budget that is itself >= the minimum), and Explored counts are
//     unchanged because pruned candidates still count as explored.
//
// The layer engages for every SUM Deviator with an active distance
// cache; MAX evaluation keeps the PR 4 bitset kernel, and the uncached
// Deviator evaluates by plain per-candidate BFS — the reference the
// kernel is tested against.

// On top of the floor bounds sits the exact per-candidate memo: a
// pooled Deviator remembers each greedy round's candidate costs and the
// round's winner. A candidate's round-r cost is a pure function of
// inMin, the rounds-r prefix of winners and the candidate's own row, so
// the memo stays exact across movers and rounds for every candidate
// whose row the pool sync did not stale: the sync drops the whole memo
// when in(u), an in-anchor row, a winner row or most rows changed, and
// marks just the candidates whose own rows changed otherwise. A settled
// dynamics round then costs O(n) memo reads per player instead of
// O(n²) merges — with the floor bounds aborting the (few) stale
// candidates' rescans early — which is where the headline SUM round
// speedup comes from.

// sumPrune reports whether SUM evaluation on this Deviator may use the
// bounded kernel: SUM version with an active distance cache.
func (dv *Deviator) sumPrune() bool {
	return dv.game.Version == SUM && dv.HasCache()
}

// sumPruneScan reports whether a greedy/swap candidate scan should run
// the full pruning machinery (tier bounds + memo): only for pool-owned
// Deviators that survived a couple of acquisitions, mirroring the
// useLevels hysteresis. One-shot responders would pay the bound
// building without a later scan to amortise it, and heavy-move phases
// (heavy syncs zero the streak) invalidate the memo faster than it
// pays; both stay on the plain blocked kernel.
func (dv *Deviator) sumPruneScan() bool {
	return dv.sumPrune() && dv.pool != nil && dv.stable >= 2
}

// sumTierCap bounds the number of distance tiers with their own suffix
// array; candidates further than sumTierCap-1 from the anchor set fall
// back to the floor-only tier. Settled instances have small diameters,
// so almost every candidate lands in a real tier.
const sumTierCap = 8

// fillSumBounds prepares the tiered pruning bounds for one candidate
// scan against the running-min vector vec: dv.sumSufT[t][p] becomes the
// total cost contribution of vertices p..n-1 if every one of them were
// served at tier t's floor (see the package comment), and
// dv.sumSufT[sumTierCap] the floor-only fallback. One O(tiers·n) pass,
// amortised over the O(n) candidates of the scan.
func (dv *Deviator) fillSumBounds(vec []int32) {
	n := dv.game.N()
	if dv.sumSufT == nil {
		dv.sumSufT = make([][]int64, sumTierCap+1)
		for t := range dv.sumSufT {
			dv.sumSufT[t] = make([]int64, n+1)
		}
	}
	cinf := dv.cinf
	for t := 0; t <= sumTierCap; t++ {
		dv.sumSufT[t][n] = 0
	}
	for w := n - 1; w >= 0; w-- {
		m := vec[w]
		// Floor tier: min(vec[w], 0), the universal bound (-1 only in
		// column u, which every candidate reads as vec[u]).
		base := min(m, 0)
		suf := dv.sumSufT[sumTierCap]
		suf[w] = suf[w+1] + int64(base) + 1
		for t := 0; t < sumTierCap; t++ {
			c := cinf
			if m < graph.InfDist {
				// max(floor, vec[w]-t), never above vec[w].
				c = int64(max(m-int32(t), base)) + 1
			}
			suf := dv.sumSufT[t]
			suf[w] = suf[w+1] + c
		}
	}
}

// sufFor picks the tightest sound suffix bound for candidate v in a
// scan whose bounds were filled from vec: the tier of v's distance to
// the current anchor set, or the floor fallback beyond the cap.
func (dv *Deviator) sufFor(vec []int32, v int) []int64 {
	if t := vec[v]; t >= 0 && t < sumTierCap {
		return dv.sumSufT[t]
	}
	return dv.sumSufT[sumTierCap]
}

// memoStale marks a candidate cost as unknown in the greedy memo.
const memoStale = int64(-1)

// memoBound encodes a prune certificate "cost strictly exceeds b" as a
// negative memo entry (distinct from memoStale); memoBoundOf decodes it.
// A candidate pruned against budget b re-prunes in O(1) on every later
// scan whose budget is at most b — the common case near convergence,
// where the incumbent cost is stable — instead of redoing the partial
// merge that pruned it.
func memoBound(b int64) int64   { return -b - 2 }
func memoBoundOf(c int64) int64 { return -c - 2 }

// sumMemo is the per-candidate memo of a pooled SUM Deviator's greedy
// scans: one entry per greedy round holding that round's winner and
// every candidate's exact cost (or prune certificate; memoStale where
// unknown — never evaluated or invalidated by a row repair). Validity
// is maintained by Repair (see memoRepair); within one scan the chosen
// prefix is additionally matched round by round, so a changed winner
// invalidates exactly the rounds it influences.
type sumMemo struct {
	rounds []sumMemoRound
}

type sumMemoRound struct {
	chosen int // winner picked after this round's scan; -1 = not run
	costs  []int64
}

// newSumMemo allocates a memo for b greedy rounds over n candidates.
func newSumMemo(b, n int) *sumMemo {
	m := &sumMemo{rounds: make([]sumMemoRound, b)}
	for r := range m.rounds {
		m.rounds[r].chosen = -1
		m.rounds[r].costs = make([]int64, n)
		for v := range m.rounds[r].costs {
			m.rounds[r].costs[v] = memoStale
		}
	}
	return m
}

// clearFrom stales every round >= r (a winner changed, so later rounds'
// running-min vectors no longer match what their costs were built on).
func (m *sumMemo) clearFrom(r int) {
	for ; r < len(m.rounds); r++ {
		if m.rounds[r].chosen < 0 && !anyKnown(m.rounds[r].costs) {
			return // already clear from here on
		}
		m.rounds[r].chosen = -1
		for v := range m.rounds[r].costs {
			m.rounds[r].costs[v] = memoStale
		}
	}
}

func anyKnown(costs []int64) bool {
	for _, c := range costs {
		if c != memoStale {
			return true
		}
	}
	return false
}

// memoRepair updates the memo after a pool sync staled the candidates
// in changed (rows whose content or offset may have moved): the memo
// survives exactly when in(u) and every row feeding the running-min
// vectors (the in-anchors and the memoised winners) are untouched; then
// only the changed candidates go stale. inSame reports whether the in(u)
// anchor list is unchanged.
func (dv *Deviator) memoRepair(changed []int32, inSame bool) {
	m := dv.memo
	if m == nil {
		return
	}
	if !inSame {
		dv.memo = nil
		return
	}
	if len(changed) == 0 {
		return
	}
	anchor := make(map[int32]bool, len(dv.in)+len(m.rounds))
	for _, v := range dv.in {
		anchor[int32(v)] = true
	}
	for _, r := range m.rounds {
		if r.chosen >= 0 {
			anchor[int32(r.chosen)] = true
		}
	}
	for _, s := range changed {
		if anchor[s] {
			dv.memo = nil // a vector-feeding row moved: all costs suspect
			return
		}
	}
	for _, s := range changed {
		for r := range m.rounds {
			m.rounds[r].costs[s] = memoStale
		}
	}
}

// inMinSuffix returns the floor-only suffix bound against inMin — the
// bound EvalBounded amortises over the many single-candidate calls of
// the enumerate scans: every vertex but u contributes at least 1 (the
// floor 0 plus one hop), u contributes 0. It depends on n and u alone,
// so it is built once.
func (dv *Deviator) inMinSuffix() []int64 {
	if dv.sumSufIn == nil {
		n := dv.game.N()
		suf := make([]int64, n+1)
		for w := n - 1; w >= 0; w-- {
			suf[w] = suf[w+1] + 1
			if w == dv.u {
				suf[w]--
			}
		}
		dv.sumSufIn = suf
	}
	return dv.sumSufIn
}

// sumEvalBounded evaluates candidate anchor extra against the running
// min-vector vec under a pruning budget (extra < 0 evaluates vec
// alone). It returns the exact SUM cost, or pruned=true certifying the
// cost strictly exceeds budget. suf must be a sound suffix bound for
// vec (fillSumBounds of vec, or of any entrywise-greater vector).
//
// The kernel works in total-contribution space, which equals the SUM
// cost: the source's own entry (vec[u] = -1) contributes 0.
func (dv *Deviator) sumEvalBounded(vec []int32, extra int, suf []int64, budget int64) (int64, bool) {
	n := len(vec)
	var row []int32
	var off int32
	if extra >= 0 {
		row, off = dv.row(extra)
	}
	if budget > 1<<62 {
		// An unbounded scan (budget seeded at MaxInt64): clamp so the
		// running totals cannot overflow — no real total reaches 2^62.
		budget = 1 << 62
	}
	cinf := dv.cinf
	if suf[0] > budget {
		// The tier's total already exceeds the budget: the candidate is
		// hopeless without reading a single row entry.
		return 0, true
	}
	sum, reached, pruned := graph.SumMergeBounded(vec, row, off, suf, cinf, budget)
	if pruned {
		return 0, true
	}
	return sum + int64(n-reached)*cinf, false
}

// EvalBounded is Eval under a pruning budget: it returns Eval(strategy),
// or pruned=true certifying that Eval(strategy) strictly exceeds bound.
// Callers scanning for improvements below a known cost (the equilibrium
// and improvement-graph scans in internal/enumerate) pass that cost as
// the bound so losing candidates abort a prefix in. On non-SUM games or
// without a cache it falls back to a full Eval.
func (dv *Deviator) EvalBounded(strategy []int, bound int64) (cost int64, pruned bool) {
	if !dv.sumPrune() {
		return dv.Eval(strategy), false
	}
	for _, v := range strategy {
		if v == dv.u {
			// Self-anchors need Eval's filtering (rare, tolerated there).
			return dv.Eval(strategy), false
		}
	}
	n := dv.game.N()
	suf := dv.inMinSuffix()
	switch len(strategy) {
	case 0:
		return dv.sumEvalBounded(dv.inMin, -1, suf, bound)
	case 1:
		return dv.sumEvalBounded(dv.inMin, strategy[0], suf, bound)
	}
	vec := getInt32(n)
	defer putInt32(vec)
	copy(vec, dv.inMin)
	for _, v := range strategy[:len(strategy)-1] {
		dv.mergeRow(vec, v)
	}
	// The suffix bound against inMin stays valid: vec only decreased.
	return dv.sumEvalBounded(vec, strategy[len(strategy)-1], suf, bound)
}
