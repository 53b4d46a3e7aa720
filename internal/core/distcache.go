package core

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// Distance-cache deviation engine.
//
// Evaluating a candidate strategy S of player u needs the distances from u
// in the deviated graph. A shortest path from u never revisits u, so with
// D(v, w) = dist_{G-u}(v, w) — distances with u deleted, which do not
// depend on S — every deviated distance is a min-merge over cached rows:
//
//	dist(u, w) = 1 + min over v in S ∪ in(u) of D(v, w).
//
// EnsureCache materialises D as a flat n×n int32 matrix, filled by
// parallel BFS over a CSR copy of G-u (one row per potential anchor), and
// folds the fixed in(u) anchors into a single inMin row. Each Eval then
// costs one fused O(|S|·n) min+sum pass instead of an O(n+m) BFS, and the
// responders in bestresponse.go get incremental forms whose marginal
// evaluations are a single O(n) pass.
//
// Memory model: the cache needs 4·n·(n+1) bytes. EnsureCache refuses
// budgets that the matrix would exceed and leaves the Deviator on the
// exact BFS fallback path, so sweeps over large n keep working; matrices
// are recycled through a sync.Pool to keep dynamics rounds allocation-flat.
//
// Concurrency contract: a Deviator is single-goroutine; clone() hands a
// worker its own scratch state while sharing the immutable rows/inMin
// matrices, which is how the parallel exact responder shards enumeration.

// DefaultCacheBudget caps the distance-cache size (in bytes) built by the
// best-response heuristics: 256 MiB, i.e. the full matrix up to n = 8191
// (4·8191·8192 bytes; n = 8192 needs 4·8192·8193, just over the cap).
// Set it lower (or to 0, disabling caching) to bound memory on sweeps that
// run many responders concurrently.
var DefaultCacheBudget int64 = 256 << 20

// int32Pool recycles distance matrices (and the smaller min-vectors)
// across Deviator lifetimes; see release().
var int32Pool sync.Pool

func getInt32(size int) []int32 {
	if v := int32Pool.Get(); v != nil {
		if s := v.([]int32); cap(s) >= size {
			return s[:size]
		}
	}
	return make([]int32, size)
}

func putInt32(s []int32) {
	if cap(s) > 0 {
		int32Pool.Put(s[:0])
	}
}

// EnsureCache builds the distance cache if 4·n·(n+1) bytes fit within
// budgetBytes, reporting whether the cache is active afterwards. It is
// idempotent and not safe for concurrent use. Without the cache every
// Eval falls back to a per-candidate BFS (bit-identical costs, just
// slower).
func (dv *Deviator) EnsureCache(budgetBytes int64) bool {
	if dv.rows != nil {
		return true
	}
	if !dv.allocCache(budgetBytes) {
		return false
	}
	dv.fillWhole(dv.base)
	dv.rebuildInMin()
	return true
}

// allocCache allocates the cache buffers — rows, inMin and, weighted,
// the offsets at the live weights generation — if 4·n·(n+1) bytes fit
// within budgetBytes, leaving the rows to be filled (or derived).
func (dv *Deviator) allocCache(budgetBytes int64) bool {
	n := dv.game.N()
	if need := 4 * int64(n) * int64(n+1); budgetBytes <= 0 || need > budgetBytes {
		return false
	}
	if dv.wts != nil {
		if !graph.FitsWeightedCache(n, dv.wts.MaxW()) {
			return false // offsets would alias InfDist: stay on Dijkstra fallback
		}
		dv.woff = getInt32(n)
		dv.rebuildWoff()
		dv.wgen = dv.wts.Gen()
	}
	dv.rows = getInt32(n * n)
	dv.inMin = getInt32(n)
	return true
}

// fillWhole fills the whole matrix of G−u over base: the batched BFS,
// or the weighted fill at the current offsets.
func (dv *Deviator) fillWhole(base graph.Und) {
	if dv.wts != nil {
		graph.NewWCSRExcluding(base, dv.wts, dv.u).DistanceRowsInto(dv.rows, dv.woff)
		return
	}
	graph.NewCSRExcluding(base, dv.u).DistanceRowsInto(dv.rows)
}

// EnsureWeightedCache is EnsureCache for Deviators built by
// NewWeightedDeviator; it panics when the Deviator carries no weights
// (callers wanting the weighted cache mode must construct one).
func (dv *Deviator) EnsureWeightedCache(budgetBytes int64) bool {
	if dv.wts == nil {
		panic("core: EnsureWeightedCache on an unweighted Deviator")
	}
	return dv.EnsureCache(budgetBytes)
}

// rebuildWoff recomputes the per-anchor row offsets w(u,v) - 1. Row u
// gets offset 0: it is never an anchor, and zero keeps its self-entry
// identical to the unweighted cache's.
func (dv *Deviator) rebuildWoff() {
	for v := range dv.woff {
		if v == dv.u {
			dv.woff[v] = 0
			continue
		}
		dv.woff[v] = dv.wts.Of(dv.u, v) - 1
	}
}

// rebuildInMin recomputes the folded in(u) anchor row from the cached
// matrix (after a fill, or after Repair changed rows or in(u)). Any
// such change also stales the memoised inMin pruning bound.
func (dv *Deviator) rebuildInMin() {
	n := dv.game.N()
	inMin := dv.inMin
	for i := range inMin {
		inMin[i] = graph.InfDist
	}
	for _, v := range dv.in {
		graph.MinInto(inMin, dv.rows[v*n:(v+1)*n])
	}
	dv.sumSufInOK = false
}

// Repair brings the Deviator in sync with d after the underlying graph
// changed (any number of players rewired their arcs since the Deviator
// was built or last repaired). The fixed adjacency, in(u) anchors and
// G-u component structure are rebuilt outright — they are O(n+m) — while
// the expensive distance matrix is repaired in place by the delta-BFS
// layer (graph.RepairRows) over the diff of the old and new adjacency:
// rows untouched by the changed edges are kept as they are, rows that
// can only have improved are patched by an improvement-only BFS, and
// only genuinely damaged rows are recomputed (with a whole rebuild —
// derived or filled, see refillWhole — past the damage threshold). The
// repaired state is bit-identical to a freshly built cache; dynamics
// pins this with repair-vs-refill tests.
func (dv *Deviator) Repair(d *graph.Digraph) graph.RepairStats {
	return dv.resync(d, false)
}

// resync is Repair; whole skips the adjacency diff and rebuilds the
// matrix outright, for a caller that already knows the delta exceeds
// graph.RepairDeltaCap (the journal reported it oversized). Both end in
// the state Repair reaches through RepairRows' full-refill exit.
func (dv *Deviator) resync(d *graph.Digraph, whole bool) graph.RepairStats {
	newBase := d.UnderlyingWithout(dv.u)
	newIn := d.In(dv.u)
	inSame := slices.Equal(dv.in, newIn)
	var st graph.RepairStats
	dv.syncWeights() // before the edge delta: repairs read current weights
	switch {
	case dv.rows == nil:
	case whole:
		dv.refillWhole(d, newBase, &st)
	default:
		removed, added := graph.DiffUnd(dv.base, newBase, dv.u)
		if len(removed)+len(added) == 0 {
			// Nothing in G-u moved: the matrix, colMin floor, SUM memo,
			// level sets and component structure are all exact as they
			// stand — the strongest stability evidence (over-invalidation
			// lands here). Return without staling any of them, so a
			// zero-diff repair and a stamped skip agree bit-for-bit.
			dv.noteStable()
			if inSame {
				return st
			}
			// Only the in(u) anchor set moved under intact rows (the diff
			// skips u-incident edges, so newBase can still differ there):
			// adopt the rebuilt adjacency, refold inMin and drop the
			// structures derived from it. Rows, colMin, levels and the
			// component structure (which excludes u) stay exact.
			dv.base = newBase
			dv.in = newIn
			dv.memo = nil
			dv.inLv = nil
			dv.rebuildInMin()
			return st
		}
		dv.applyRowDelta(d, newBase, removed, added, inSame, &st)
	}
	dv.base = newBase
	dv.in = newIn
	dv.label, dv.comps = graph.ComponentsExcluding(newBase, dv.u)
	dv.seen = make([]bool, dv.comps+1)
	dv.inLv = nil // in(u) may have changed; rebuilt lazily
	if dv.rows != nil {
		dv.rebuildInMin()
	}
	return st
}

// applyRowDelta runs the delta-BFS row repair plus the dependent colMin,
// memo and level-cache maintenance for a non-empty edge delta that
// brings the rows to d, whose G−u adjacency is newBase. Shared by Repair
// (diff-computed delta) and RepairDelta (journal-supplied delta) so both
// paths stay bit-identical.
func (dv *Deviator) applyRowDelta(d *graph.Digraph, newBase graph.Und, removed, added [][2]int32, inSame bool, st *graph.RepairStats) {
	n := dv.game.N()
	if dv.wts != nil {
		// Weighted tier: the same plan over the weighted repair layer.
		// Edge weights are read at current values — syncWeights already
		// brought the rows up to the live weights generation.
		wcsr := graph.NewWCSRExcluding(newBase, dv.wts, dv.u)
		if dv.wds == nil {
			dv.wds = graph.NewWDeltaScratch(n)
		}
		*st = wcsr.RepairRowsWeighted(dv.rows, dv.woff, dv.toWEdges(removed), dv.toWEdges(added), dv.wds)
	} else {
		csr := graph.NewCSRExcluding(newBase, dv.u)
		if dv.ds == nil {
			dv.ds = graph.NewDeltaScratch(n)
		}
		*st = csr.RepairRows(dv.rows, removed, added, dv.ds)
	}
	if st.FullRefill {
		dv.refillWhole(d, newBase, st)
		return
	}
	dv.repairColMin(*st)
	dv.memoRepair(*st, inSame)
	dv.noteStable()
	if dv.lc != nil {
		for _, s := range st.Changed {
			dv.lc.SetRow(int(s), dv.rows[int(s)*n:(int(s)+1)*n])
		}
	}
}

// refillWhole rebuilds the whole matrix of G−u for d (adjacency base)
// once the graph moved too far for row repair: derived from the owning
// pool's freshest exact entry when one qualifies (CachePool.derive),
// else one whole fill. Derived rows equal a fresh fill bit for bit, and
// the dependent state follows the full-refill rules either way — colMin
// and the SUM memo dropped, the level cache dropped (re-levelling a
// whole new matrix would cost more than the bitset kernel saves this
// round) and the stability streak reset, so the MAX responders run the
// row kernel until the rows settle again. Which rebuild ran is visible
// only in st.Derived.
func (dv *Deviator) refillWhole(d *graph.Digraph, base graph.Und, st *graph.RepairStats) {
	*st = graph.RepairStats{FullRefill: true}
	if dst, ok := dv.pool.derive(dv, d); ok {
		st.Derived, st.RowsRefilled = true, dst.RowsRefilled
	} else {
		dv.fillWhole(base)
	}
	dv.repairColMin(*st) // drops colMin: rebuilt exactly on next use
	dv.memo = nil
	dv.lc = nil
	dv.stable = 0
}

// RepairDelta brings the Deviator in sync with d after an exact
// undirected-edge delta supplied by the graph's mutation journal
// (CachePool's DeltaRepair rung). The delta must exclude edges incident
// to u and reflect an unchanged in(u) anchor set — the pool only takes
// this path when the journal certifies both — so the fixed adjacency
// is patched in place and the anchor fold rebuilt without the O(n+m)
// UnderlyingWithout + DiffUnd resync that Repair pays. The resulting
// state is bit-identical to Repair against the same target graph.
func (dv *Deviator) RepairDelta(d *graph.Digraph, removed, added [][2]int32) graph.RepairStats {
	var st graph.RepairStats
	dv.syncWeights() // before the edge delta: repairs read current weights
	if len(removed)+len(added) == 0 {
		dv.noteStable()
		return st
	}
	for _, e := range removed {
		dv.base.RemoveEdge(int(e[0]), int(e[1]))
	}
	for _, e := range added {
		dv.base.AddEdge(int(e[0]), int(e[1]))
	}
	if dv.rows != nil {
		dv.applyRowDelta(d, dv.base, removed, added, true, &st)
	}
	dv.label, dv.comps = graph.ComponentsExcluding(dv.base, dv.u)
	dv.seen = make([]bool, dv.comps+1)
	dv.inLv = nil
	if dv.rows != nil {
		dv.rebuildInMin()
	}
	return st
}

// noteStable records one acquisition that kept the rows intact (or
// cheaply repaired); the streak saturates low so one full refill always
// re-triggers the row-kernel phase.
func (dv *Deviator) noteStable() {
	if dv.stable < 4 {
		dv.stable++
	}
}

// useLevels reports whether the MAX responders should evaluate on the
// bitset eccentricity kernel: only for pool-owned Deviators whose rows
// have stayed stable for a couple of acquisitions (or once the cache
// exists already), because building the level sets costs about as much
// as one full greedy scan saves — it pays off precisely when it
// survives across movers and rounds and is patched, not rebuilt, after
// each move. Heavy-move phases (full refills on every repair) stay on
// the row kernel.
func (dv *Deviator) useLevels() bool {
	if dv.game.Version != MAX || dv.rows == nil || dv.wts != nil {
		// Weighted distances exceed the n levels the bitset cache holds;
		// weighted MAX stays on the row kernel.
		return false
	}
	return dv.lc != nil || (dv.pool != nil && dv.stable >= 2)
}

// ensureLevels builds the bitset level cache of the distance matrix and
// the in(u) level union — the state of the MAX eccentricity kernel. It
// is lazy: one-shot SUM responders never pay for it, and pooled MAX
// Deviators build it once and keep it patched across repairs.
func (dv *Deviator) ensureLevels() {
	n := dv.game.N()
	if dv.lc == nil {
		lc := graph.NewLevelCache(n)
		for s := 0; s < n; s++ {
			lc.SetRow(s, dv.rows[s*n:(s+1)*n])
		}
		dv.lc = lc
	}
	if dv.inLv == nil {
		lu := graph.NewLevelUnion(n)
		for _, v := range dv.in {
			lu.Merge(dv.lc, v)
		}
		dv.inLv = lu
	}
}

// HasCache reports whether the distance cache is active.
func (dv *Deviator) HasCache() bool { return dv.rows != nil }

// Release hands the cache back to its owner. For a plain Deviator that
// recycles the matrices into the global pool and drops back to BFS
// evaluation (still bit-identical). For a Deviator owned by a CachePool
// it is a no-op: the matrices stay alive in the pool — and must,
// because the pool will repair and reuse them for later rounds, and
// recycling them into the global sync.Pool mid-round would hand the
// backing array to a concurrent responder (only CachePool.Close
// recycles pool-owned matrices).
func (dv *Deviator) Release() { dv.release() }

// release returns the cache matrices to the pool. Callers that own the
// Deviator (the responders) release on exit; any clones sharing the
// matrices must be done first.
func (dv *Deviator) release() {
	if dv.pool != nil {
		return // pool-owned: recycled only by CachePool.Close
	}
	if dv.rows != nil {
		putInt32(dv.rows)
		dv.rows = nil
	}
	if dv.inMin != nil {
		putInt32(dv.inMin)
		dv.inMin = nil
	}
	if dv.colMin != nil {
		putInt32(dv.colMin)
		dv.colMin = nil
	}
	if dv.woff != nil {
		putInt32(dv.woff)
		dv.woff = nil
	}
	dv.sumSufT, dv.sumSufIn, dv.sumSufInOK = nil, nil, false
	dv.memo = nil
	dv.lc, dv.inLv = nil, nil
}

// releaseOwned force-recycles the matrices regardless of pool
// membership; only the pool itself calls it, on eviction and Close.
func (dv *Deviator) releaseOwned() {
	dv.pool = nil
	dv.release()
}

// clone returns a Deviator with private mutable scratch state sharing the
// immutable base graph, component labels and distance cache, for use by
// one worker goroutine of the parallel exact responder.
func (dv *Deviator) clone() *Deviator {
	return &Deviator{
		game:   dv.game,
		u:      dv.u,
		base:   dv.base,
		in:     dv.in,
		label:  dv.label,
		comps:  dv.comps,
		seen:   make([]bool, dv.comps+1),
		s:      graph.NewScratch(dv.game.N()),
		rows:   dv.rows,
		inMin:  dv.inMin,
		colMin: dv.colMin, // immutable while clones are live; suffix scratch stays private
		wts:    dv.wts,
		woff:   dv.woff,
		wgen:   dv.wgen,
		cinf:   dv.cinf,
	}
}

// aggregate computes the BFS-equivalent aggregates of the deviation whose
// anchor min-vector is vec, min-merged on the fly with the cached row of
// anchor extra (extra < 0 evaluates vec alone). vec[w] must hold min over
// anchors of D(anchor, w); the source u contributes reached=1 and distance
// 0, and vec[u] is always InfDist because no G-u row reaches u.
//
// The pass is specialised per cost version — SUM never reads the
// eccentricity and MAX never reads the distance sum, so each kernel
// (graph.SumMerge, graph.MaxMerge) carries only the accumulator its
// costFrom consumes.
func (dv *Deviator) aggregate(vec []int32, extra int) graph.BFSResult {
	var row []int32
	if extra >= 0 {
		row = dv.rows[extra*len(vec) : (extra+1)*len(vec)]
	}
	switch dv.game.Version {
	case SUM:
		// SumMerge's reach count excludes the source, which the
		// aggregates count.
		sum, reached := graph.SumMerge(vec, row)
		return graph.BFSResult{Sum: sum, Reached: reached + 1}
	case MAX:
		return eccResult(graph.MaxMerge(vec, row))
	default:
		panic("core: unknown version")
	}
}

// mergeRow folds anchor v's cached distance row into the running
// min-vector vec (the incremental step of the greedy responder).
func (dv *Deviator) mergeRow(vec []int32, v int) {
	graph.MinInto(vec, dv.rows[v*len(vec):(v+1)*len(vec)])
}

// touched tracks which G-u components the growing anchor set reaches —
// the incremental form of CountComponentsTouched that the cached
// responders share. The count must stay bit-identical to what Eval
// computes for the same anchors, since it feeds the kappa rule.
type touched struct {
	dv    *Deviator
	seen  []bool
	count int
}

// newTouched returns a tracker seeded with the fixed in(u) anchors.
func (dv *Deviator) newTouched() *touched {
	t := &touched{dv: dv, seen: make([]bool, dv.comps+1)}
	t.reset()
	return t
}

// reset re-seeds the tracker with in(u) only.
func (t *touched) reset() {
	for i := range t.seen {
		t.seen[i] = false
	}
	t.count = 0
	for _, v := range t.dv.in {
		t.mark(v)
	}
}

// mark records anchor v's component, returning its label if newly touched
// and -1 otherwise (the return value feeds unmark for backtracking).
func (t *touched) mark(v int) int {
	if l := t.dv.label[v]; l >= 0 && !t.seen[l] {
		t.seen[l] = true
		t.count++
		return l
	}
	return -1
}

// unmark undoes a mark that returned label l; a -1 is a no-op.
func (t *touched) unmark(l int) {
	if l >= 0 {
		t.seen[l] = false
		t.count--
	}
}

// with returns the touched count if anchor v were added.
func (t *touched) with(v int) int {
	if l := t.dv.label[v]; l >= 0 && !t.seen[l] {
		return t.count + 1
	}
	return t.count
}

// costOf converts BFS aggregates plus the number of G-u components touched
// by the anchor set into the player cost, mirroring Eval's kappa rule.
func (dv *Deviator) costOf(r graph.BFSResult, touched int) int64 {
	kappa := 1
	if r.Reached != dv.game.N() {
		kappa = dv.comps - touched + 1
	}
	return costFrom(dv.game.N(), dv.cinf, dv.game.Version, r, kappa)
}

// evalCached is Eval over the distance cache: one fused min+aggregate pass
// over inMin and the strategy's rows.
func (dv *Deviator) evalCached(strategy []int) int64 {
	n := dv.game.N()
	for _, v := range strategy {
		if v == dv.u {
			// Tolerated like the BFS path tolerates it: u is the source,
			// not an anchor. Filter into a scratch copy (rare).
			filtered := make([]int, 0, len(strategy))
			for _, w := range strategy {
				if w != dv.u {
					filtered = append(filtered, w)
				}
			}
			strategy = filtered
			break
		}
	}
	// One fused pass: the anchors but the last fold into a copy of
	// inMin, and the kernel merges the last anchor's row on the fly.
	vec, last := dv.inMin, -1
	if len(strategy) > 0 {
		last = strategy[len(strategy)-1]
	}
	if len(strategy) > 1 {
		vec = getInt32(n)
		copy(vec, dv.inMin)
		for _, v := range strategy[:len(strategy)-1] {
			graph.MinInto(vec, dv.rows[v*n:(v+1)*n])
		}
	}
	res := dv.aggregate(vec, last)
	if len(strategy) > 1 {
		putInt32(vec)
	}
	kappa := 1
	if dv.game.Version == MAX && res.Reached != n {
		// SUM never reads the component count.
		touched := graph.CountComponentsTouched(dv.label, dv.seen, dv.u, strategy, dv.in)
		kappa = dv.comps - touched + 1
	}
	return costFrom(n, dv.cinf, dv.game.Version, res, kappa)
}
