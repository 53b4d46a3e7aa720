package core

import (
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
// evaluations are a single O(n) pass. A CachePool entry reads most rows
// from the pool's one matrix of the whole graph instead (pool.go); every
// kernel reads rows through row(v), so both layouts run the same code.
//
// Column u. Vertex u's own distance is 0 = −1 + 1, so inMin[u] = −1 and
// every running-min vector starts there: each merge then counts u as
// reached at distance 0 and no row's column u is ever read — which is
// what lets a pool entry share rows of dist_G, whose column u is finite.
//
// Memory model: the cache needs 4·n·(n+1) bytes (4·n more for the
// weighted offsets). EnsureCache refuses budgets that the matrix would
// exceed and leaves the Deviator on the exact BFS fallback path, so
// sweeps over large n keep working; matrices are recycled through a
// sync.Pool to keep dynamics rounds allocation-flat.
//
// Concurrency contract: a Deviator is single-goroutine; clone() hands a
// worker its own scratch state while sharing the immutable rows/inMin
// matrices (and a pool entry's shared rows), which is how the parallel
// exact responder shards enumeration.

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

// EnsureCache builds the distance cache if its bytes — the n×n matrix,
// inMin and, weighted, the offsets — fit within budgetBytes, reporting
// whether the cache is active afterwards. It is idempotent and not safe
// for concurrent use. Without the cache every Eval falls back to a
// per-candidate BFS (bit-identical costs, just slower).
func (dv *Deviator) EnsureCache(budgetBytes int64) bool {
	if dv.HasCache() {
		return true
	}
	n := dv.game.N()
	need := 4 * int64(n) * int64(n+1)
	if dv.wts != nil {
		need += 4 * int64(n)
	}
	if budgetBytes <= 0 || need > budgetBytes {
		return false
	}
	if dv.wts != nil {
		if !graph.FitsWeightedCache(n, dv.wts.MaxW()) {
			return false // offsets would alias InfDist: stay on Dijkstra fallback
		}
		dv.woff = getInt32(n)
		dv.rebuildWoff()
		dv.wgen = dv.wts.Gen()
		dv.rows = getInt32(n * n)
		graph.NewWCSRExcluding(dv.base, dv.wts, dv.u).DistanceRowsInto(dv.rows)
	} else {
		dv.rows = getInt32(n * n)
		graph.NewCSRExcluding(dv.base, dv.u).DistanceRowsInto(dv.rows)
	}
	dv.inMin = getInt32(n)
	dv.rebuildInMin()
	return true
}

// rebuildWoff recomputes the per-anchor row offsets w(u,v) - 1. Row u
// gets offset 0: it is never an anchor.
func (dv *Deviator) rebuildWoff() {
	for v := range dv.woff {
		if v == dv.u {
			dv.woff[v] = 0
			continue
		}
		dv.woff[v] = dv.wts.Of(dv.u, v) - 1
	}
}

// row returns anchor v's cached row of dist_{G-u} and the offset the
// kernels add to it (w(u,v) - 1 under weights, else 0). A pool entry's
// shared row holds dist_G(v,u) in column u; inMin[u] = -1 masks it.
func (dv *Deviator) row(v int) ([]int32, int32) {
	n := dv.game.N()
	var off int32
	if dv.woff != nil {
		off = dv.woff[v]
	}
	if dv.priv == nil {
		return dv.rows[v*n : (v+1)*n], off
	}
	if k := int(dv.priv[v]); k >= 0 {
		return dv.rows[k*n : (k+1)*n], off
	}
	return dv.shared[v*n : (v+1)*n], off
}

// rebuildInMin recomputes the folded in(u) anchor row from the cached
// rows (after a fill, or after a sync changed an in-anchor row, an
// offset or in(u)).
func (dv *Deviator) rebuildInMin() {
	inMin := dv.inMin
	for i := range inMin {
		inMin[i] = graph.InfDist
	}
	for _, v := range dv.in {
		r, off := dv.row(v)
		graph.MinInto(inMin, r, off)
	}
	inMin[dv.u] = -1
}

// noteStable records one acquisition that staled at most a quarter of
// the rows; the streak saturates low so one heavy sync always
// re-triggers the row-kernel phase.
func (dv *Deviator) noteStable() {
	if dv.stable < 4 {
		dv.stable++
	}
}

// useLevels reports whether the MAX responders should evaluate on the
// bitset eccentricity kernel: only for pool entries whose rows have
// stayed stable for a couple of acquisitions, because building an
// entry's level state costs about as much as one full greedy scan saves
// — it pays off precisely when it survives across movers and rounds —
// and only while the pool's level sets of D fit its budget (the first
// such call builds them). Heavy-move phases (syncs that stale most
// rows) stay on the row kernel.
func (dv *Deviator) useLevels() bool {
	// Weighted distances exceed the n levels the bitset cache holds;
	// weighted MAX stays on the row kernel.
	return dv.game.Version == MAX && dv.pool != nil && dv.wts == nil && dv.stable >= 2 &&
		dv.pool.sharedLevels()
}

// ensureLevels builds the level state of the MAX eccentricity kernel:
// the pool's level sets of the shared rows, the entry's of its private
// rows, and the in(u) union seeded with u. It is lazy: SUM responders
// never pay for it, and a pool keeps the shared sets patched as the
// graph moves.
func (dv *Deviator) ensureLevels() {
	n := dv.game.N()
	dv.pool.sharedLevels()
	if k := len(dv.rows) / n; dv.lc == nil && k > 0 {
		lc := graph.NewLevelCache(n, k)
		for i := 0; i < k; i++ {
			lc.SetRow(i, dv.rows[i*n:(i+1)*n])
		}
		dv.lc = lc
	}
	if dv.inLv == nil {
		lu := graph.NewLevelUnion(n)
		lu.Seed(dv.u)
		for _, v := range dv.in {
			lc, s := dv.levelsOf(v)
			lu.Merge(lc, s)
		}
		dv.inLv = lu
	}
}

// levelsOf returns the level cache holding anchor v's level sets and
// v's index in it.
func (dv *Deviator) levelsOf(v int) (*graph.LevelCache, int) {
	if k := int(dv.priv[v]); k >= 0 {
		return dv.lc, k
	}
	return dv.pool.sh.lc, v
}

// HasCache reports whether the distance cache is active.
func (dv *Deviator) HasCache() bool { return dv.inMin != nil }

// Release hands the cache back to its owner. For a plain Deviator that
// recycles the matrices into the global pool and drops back to BFS
// evaluation (still bit-identical). For a Deviator owned by a CachePool
// the buffers stay alive in the pool, which syncs and reuses them for
// later rounds; Release only charges what the scan grew (a memo, level
// sets) to the pool's budget (CachePool.settle).
func (dv *Deviator) Release() {
	if dv.pool != nil {
		dv.pool.settle(dv.u)
		return
	}
	dv.release()
}

// release returns the cache matrices to the pool. Callers that own the
// Deviator (the responders) release on exit; any clones sharing the
// matrices must be done first.
func (dv *Deviator) release() {
	if dv.pool != nil {
		return // pool-owned: recycled only by the pool
	}
	if dv.rows != nil {
		putInt32(dv.rows)
		dv.rows = nil
	}
	if dv.inMin != nil {
		putInt32(dv.inMin)
		dv.inMin = nil
	}
	if dv.woff != nil {
		putInt32(dv.woff)
		dv.woff = nil
	}
	dv.priv, dv.shared = nil, nil
	dv.sumSufT, dv.sumSufIn = nil, nil
	dv.memo = nil
	dv.lc, dv.inLv = nil, nil
}

// releaseOwned force-recycles the buffers regardless of pool membership;
// only the pool itself calls it, on eviction and Close.
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
		priv:   dv.priv,
		shared: dv.shared,
		inMin:  dv.inMin,
		wts:    dv.wts,
		woff:   dv.woff,
		wgen:   dv.wgen,
		cinf:   dv.cinf,
	}
}

// aggregate computes the BFS-equivalent aggregates of the deviation whose
// anchor min-vector is vec, min-merged on the fly with the cached row of
// anchor extra (extra < 0 evaluates vec alone). vec[w] must hold min over
// anchors of D(anchor, w) + offset, and vec[u] = -1: the source u counts
// as reached at distance 0.
//
// The pass is specialised per cost version — SUM never reads the
// eccentricity and MAX never reads the distance sum, so each kernel
// (graph.SumMerge, graph.MaxMerge) carries only the accumulator its
// costFrom consumes.
func (dv *Deviator) aggregate(vec []int32, extra int) graph.BFSResult {
	var row []int32
	var off int32
	if extra >= 0 {
		row, off = dv.row(extra)
	}
	switch dv.game.Version {
	case SUM:
		sum, reached := graph.SumMerge(vec, row, off)
		return graph.BFSResult{Sum: sum, Reached: reached}
	case MAX:
		return eccResult(graph.MaxMerge(vec, row, off))
	default:
		panic("core: unknown version")
	}
}

// mergeRow folds anchor v's cached distance row into the running
// min-vector vec (the incremental step of the greedy responder).
func (dv *Deviator) mergeRow(vec []int32, v int) {
	r, off := dv.row(v)
	graph.MinInto(vec, r, off)
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
			dv.mergeRow(vec, v)
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
