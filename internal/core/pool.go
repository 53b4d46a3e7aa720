package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// Round-level distance-cache reuse. The PR 1 engine refills dist_{G-u}
// from scratch for every best-response call, so a dynamics round at n
// players pays n full matrix fills even when nothing moved. A CachePool
// keeps one cached Deviator per player alive across movers and rounds
// and lazily repairs it (Deviator.Repair: delta BFS over the edges that
// actually changed) when the graph has moved on since the entry was last
// used. Converged and converging rounds — the bulk of any dynamics run —
// then cost zero fills: each acquisition is a version check plus, at
// most, a repair proportional to the damage of the accepted moves.
//
// Generation stamps push that one level further. Every entry remembers
// the graph generation and content anchor it was last synced to
// (graph/stamp.go); a stale acquisition first consults the stamps — an
// unchanged generation or matching anchor proves the entry is exact and
// skips even the O(n+m) UnderlyingWithout rebuild + DiffUnd, and the
// mutation journal hands Repair the exact edge delta when only a few
// movers touched the graph. A settled round is then O(movers), not
// O(players): untouched players cost a stamp comparison each.
//
// The acquisition ladder, cheapest proof first:
//
//	StampSkip → DeltaRepair → Derive → Fill / Resync
//
//   - StampSkip: same instance and generation, a journal delta that is
//     empty outside u, or a matching content anchor — nothing to do.
//   - DeltaRepair: the journal's exact edge delta repairs the rows in
//     place (graph.RepairRows). DeltaSince is capped at
//     graph.RepairDeltaCap, so an oversized delta is known before any
//     netting work and goes straight to a whole rebuild.
//   - Derive: wherever a whole matrix of dist_{G−y} would be built — a
//     new entry, or a repair past RepairDeltaCap / RepairRefillFraction
//     — it is derived instead from the pool's freshest exact entry x
//     (graph.DeriveRows): copy x's rows, re-insert x, delete y, refill
//     only the rows y's deletion damaged. The donor is one of the two
//     most recently synced entries, and "exact" means the journal shows
//     no edge change outside x's own incident edges since x synced (and,
//     in a weighted pool, x is at the live weights generation). In a
//     dynamics run that is normally the previous player, whose own move
//     is the only change since. Derived rows are bit-identical to a
//     fresh fill and the entry's colMin, SUM memo, level sets and
//     stability streak follow the full-refill rules, so derivation is
//     invisible past the counters.
//   - Fill / Resync: a whole-matrix fill remains only when no donor
//     qualifies or y's deletion damages more than RepairRefillFraction
//     of the rows; a resync (UnderlyingWithout + DiffUnd) only when the
//     journal cannot cover the gap or in(u) moved.
//
// Every rung is exact: the rows it leaves equal a whole fill bit for
// bit, so pooled responders return what the uncached Deviator — plain
// per-candidate BFS, or Dijkstra under weights — returns; tests pin the
// pool against that reference. On a graph without a journal (Clone
// never copies one) every entry whose graph moved takes the Resync rung.
//
// Admission is static: players are pooled first-come within the byte
// budget, and everyone else gets a plain per-call Deviator. Dynamics
// visit players cyclically, for which any evict-on-admission policy
// (LRU included) degenerates to zero hits plus churn; a static resident
// set keeps budget/per players at full repair speed and leaves the rest
// exactly as fast as the refill baseline.
//
// Concurrency contract: the pool is single-goroutine — every method
// and every acquired Deviator belongs to the goroutine that drives it
// (a dynamics engine's loop, or a serve session under its lock). The
// one exception is monitoring: Stats and BytesUsed read atomics, so
// serve's memory governor and /statsz may poll them from any goroutine
// while the pool is in use.

// DefaultPoolBudget caps the total bytes of distance matrices a
// CachePool keeps alive: 1 GiB, i.e. every player of an n ≈ 500 game or
// the first ~budget/(4n²) players beyond that. The bbncg -poolmb flag
// overrides it. The budget charges the matrices (rows + inMin) only;
// stable MAX entries additionally hold bitset level sets — about
// (diam+1)/32 of the matrix bytes on top — so operators sizing the
// budget to a machine should leave that headroom.
var DefaultPoolBudget int64 = 1 << 30

// PoolStats counts what a CachePool did over its lifetime. Fills and
// FullRefills count whole-matrix BFS (or weighted) fills only; a matrix
// the derive rung built instead counts in Derives.
type PoolStats struct {
	Acquires int64 // total Acquire calls
	Hits     int64 // acquisitions served from a live entry
	Fills    int64 // new entries built by a whole-matrix fill
	Repairs  int64 // acquisitions that ran a repair (delta or resync)
	Unpooled int64 // acquisitions served by a plain Deviator (over budget or closed)

	RowsPatched  int64 // matrix rows repaired by improvement-only BFS
	RowsRefilled int64 // matrix rows recomputed by fresh BFS (repair- or derive-damaged)
	FullRefills  int64 // repairs that fell back to a whole-matrix fill

	StampSkips   int64 // stale acquisitions settled by stamps alone (no rebuild, no diff)
	DeltaRepairs int64 // repairs driven by the journal delta (no diff; an oversized one rebuilds whole)
	Resyncs      int64 // repairs that fell back to UnderlyingWithout + DiffUnd
	Derives      int64 // whole matrices (new entries, past-threshold repairs) derived from an exact donor entry
	MemoHits     int64 // best-response scans skipped by the round-level memo
}

// poolCounters is the atomic mirror of PoolStats: the pool's owning
// goroutine is the only writer, but Stats may be read concurrently
// from any goroutine (see the concurrency contract).
type poolCounters struct {
	acquires, hits, fills, repairs, unpooled atomic.Int64
	rowsPatched, rowsRefilled, fullRefills   atomic.Int64
	stampSkips, deltaRepairs, resyncs        atomic.Int64
	derives, memoHits                        atomic.Int64
}

// CachePool keeps per-player cached Deviators alive across the rounds of
// a dynamics run (or any other sequence of locally-mutated graphs).
type CachePool struct {
	game   *Game
	budget int64
	per    int64 // bytes per cached player: 4·n·(n+1)
	// used is atomic only so external monitors (bbncg serve's memory
	// governor) can read it without the single-goroutine pool lock; all
	// writers are the pool's owning goroutine.
	used    atomic.Int64
	version int64 // bumped by Invalidate
	entries map[int]*poolEntry
	resp    []respEntry // round-level best-response memo, indexed by player
	closed  bool
	ctr     poolCounters

	// wts makes this a weighted pool (NewWeightedCachePool): entries are
	// weighted Deviators whose rows hold offset-adjusted weighted
	// distances. Weight mutations are a second staleness stream beside
	// the pool version — entries remember the weights generation they
	// were synced to (Deviator.wgen), so weight-only changes need no
	// Invalidate call and settled rounds still cost one comparison per
	// untouched player.
	wts *graph.Weights

	// Derive rung state, owned here so a derivation allocates nothing:
	// the two most recently synced entries (donor candidates, newest
	// first), the whole graph as a CSR — a WCSR in a weighted pool —
	// repacked in place when (gOf, gGen, gWGen) goes stale, and the
	// damage scratch.
	fresh [2]*poolEntry
	gcsr  graph.CSR
	gwcsr graph.WCSR
	gOf   *graph.Digraph
	gGen  int64
	gWGen int64
	dds   *graph.DeltaScratch
	wdds  *graph.WDeltaScratch
}

type poolEntry struct {
	dv      *Deviator
	version int64

	// Stamp state: the graph instance and generation the entry was last
	// synced against, plus its content anchor (matches any clone of the
	// same arc set).
	graph *graph.Digraph
	gen   int64
	aid   uint64
	agen  int64
}

// respEntry memoises "player u had no improving move against the graph
// whose anchor was (aid, agen)". Any mutation moves the anchor, so a
// match proves G−u, in(u) and out(u) are all unchanged since that
// answer — the scan would reproduce it verbatim. Weighted pools record
// the weights generation too: weight-only mutations move no graph
// anchor but do move costs.
type respEntry struct {
	ok   bool
	aid  uint64
	agen int64
	wgen int64
}

// NewCachePool returns a pool for g bounded by budgetBytes (<= 0 means
// DefaultPoolBudget).
func NewCachePool(g *Game, budgetBytes int64) *CachePool {
	if budgetBytes <= 0 {
		budgetBytes = DefaultPoolBudget
	}
	n := int64(g.N())
	return &CachePool{
		game:    g,
		budget:  budgetBytes,
		per:     4 * n * (n + 1),
		entries: make(map[int]*poolEntry),
	}
}

// NewWeightedCachePool returns a pool whose entries evaluate under arc
// weights wts (nil wts degrades to NewCachePool). Weighted entries
// additionally hold the n-entry offset vector, charged to the budget.
func NewWeightedCachePool(g *Game, budgetBytes int64, wts *graph.Weights) *CachePool {
	p := NewCachePool(g, budgetBytes)
	if wts != nil {
		p.wts = wts
		n := int64(g.N())
		p.per = 4 * n * (n + 2)
	}
	return p
}

// BuiltFor reports whether the pool's entries evaluate g's costs: the
// pool was built for a game with g's players, version and budgets, and
// over exactly the arc weights wts (nil for an unweighted pool).
func (p *CachePool) BuiltFor(g *Game, wts *graph.Weights) bool {
	if p.wts != wts {
		return false
	}
	return p.game == g || p.game.Version == g.Version && slices.Equal(p.game.Budgets, g.Budgets)
}

// Invalidate marks the graph as changed — an accepted move, or a whole
// graph swap in the profile-enumeration harnesses: every pooled entry
// is stale and will be resynced on its next acquisition. Staleness is
// pool-wide, not per-mover; the resync of an untouched player is a
// generation comparison, so over-invalidation stays cheap. Nil-safe and
// a no-op after Close so disabled-pool call sites stay branchless.
func (p *CachePool) Invalidate() {
	if p != nil && !p.closed {
		p.version++
	}
}

// record stamps e as synced to d's current state, making it the
// freshest donor candidate.
func (p *CachePool) record(e *poolEntry, d *graph.Digraph) {
	e.graph = d
	e.gen = d.Gen()
	e.aid, e.agen = d.Anchor()
	if p.fresh[0] != e {
		p.fresh[0], p.fresh[1] = e, p.fresh[0]
	}
}

// Acquire returns a Deviator for player u evaluating against d, synced
// to d's current state: a pooled entry is repaired in place if stale, a
// new entry is built if the budget still has room, and a plain uncached
// Deviator is returned otherwise (always after Close). The caller must
// Release the Deviator when done with it and must not use it after the
// pool's next Acquire for the same player.
func (p *CachePool) Acquire(d *graph.Digraph, u int) *Deviator {
	p.ctr.acquires.Add(1)
	if p.closed {
		p.ctr.unpooled.Add(1)
		return NewWeightedDeviator(p.game, d, u, p.wts)
	}
	if e, ok := p.entries[u]; ok {
		if e.version != p.version {
			p.resync(e, d)
			e.version = p.version
		} else if p.wts != nil && e.dv.wgen != p.wts.Gen() {
			// Graph untouched but weights moved on: sync the rows from the
			// weights change log. Counted as a repair, never a resync — the
			// topology ladder is not involved.
			e.dv.syncWeights()
			p.ctr.repairs.Add(1)
		} else {
			e.dv.noteStable() // untouched graph: strongest stability signal
		}
		p.ctr.hits.Add(1)
		return e.dv
	}
	dv := NewWeightedDeviator(p.game, d, u, p.wts)
	if p.used.Load()+p.per > p.budget || !dv.allocCache(p.per) {
		p.ctr.unpooled.Add(1)
		return dv // over budget: behaves like a plain Deviator
	}
	dv.pool = p
	p.used.Add(p.per)
	if st, ok := p.derive(dv, d); ok {
		p.ctr.derives.Add(1)
		p.ctr.rowsRefilled.Add(int64(st.RowsRefilled))
	} else {
		dv.fillWhole(dv.base)
		p.ctr.fills.Add(1)
	}
	dv.rebuildInMin()
	e := &poolEntry{dv: dv, version: p.version}
	p.record(e, d)
	p.entries[u] = e
	return dv
}

// resync brings a stale entry in step with d, cheapest proof first:
// stamp skip (same instance and generation, or matching content anchor
// across clones) → journal delta repair, or past the repair cap a whole
// rebuild (derived when a donor qualifies) → full rebuild + diff.
func (p *CachePool) resync(e *poolEntry, d *graph.Digraph) {
	if p.wts != nil && e.dv.wgen != p.wts.Gen() {
		// Weight deltas land first, against the topology the rows still
		// describe (Repair/RepairDelta would do the same internally; doing
		// it here keeps the stamp-skip exits exact too).
		e.dv.syncWeights()
		p.ctr.repairs.Add(1)
	}
	if e.graph != nil {
		if e.graph == d {
			if e.gen == d.Gen() {
				e.dv.noteStable()
				p.ctr.stampSkips.Add(1)
				return
			}
			dl, ok := d.DeltaSince(e.gen, e.dv.u, graph.RepairDeltaCap(p.game.N()))
			if ok && (dl.Oversized || !dl.InTouched) {
				switch {
				case dl.Oversized:
					// Past the repair cap: rebuild whole straight away —
					// Repair would diff its way to the same full refill.
					p.noteDelta(e.dv.resync(d, true))
				case len(dl.Removed)+len(dl.Added) == 0:
					e.dv.noteStable()
					p.ctr.stampSkips.Add(1)
				default:
					p.noteDelta(e.dv.RepairDelta(d, dl.Removed, dl.Added))
				}
				p.record(e, d)
				return
			}
		} else if aid, agen := d.Anchor(); aid == e.aid && agen == e.agen {
			// A different instance (a fresh clone) with the same content
			// anchor: identical arc set, nothing to do.
			e.dv.noteStable()
			p.ctr.stampSkips.Add(1)
			p.record(e, d)
			return
		}
	}
	st := e.dv.Repair(d)
	p.ctr.resyncs.Add(1)
	p.ctr.repairs.Add(1)
	p.noteRepair(st)
	p.record(e, d)
}

// noteDelta counts one journal-driven repair.
func (p *CachePool) noteDelta(st graph.RepairStats) {
	p.ctr.deltaRepairs.Add(1)
	p.ctr.repairs.Add(1)
	p.noteRepair(st)
}

func (p *CachePool) noteRepair(st graph.RepairStats) {
	p.ctr.rowsPatched.Add(int64(st.RowsPatched))
	p.ctr.rowsRefilled.Add(int64(st.RowsRefilled))
	switch {
	case st.Derived:
		p.ctr.derives.Add(1)
	case st.FullRefill:
		p.ctr.fullRefills.Add(1)
	}
}

// derive fills dv's whole matrix for d — dv must belong to this pool,
// with its buffers allocated and, weighted, its offsets current — from
// the freshest exact donor entry (the derive rung; see the file
// comment). It reports false, leaving dv.rows without meaningful
// content, when no donor qualifies or the derivation declined on
// damage; the caller then fills the matrix whole. Nil-safe.
func (p *CachePool) derive(dv *Deviator, d *graph.Digraph) (graph.RepairStats, bool) {
	if p == nil || p.closed {
		return graph.RepairStats{}, false
	}
	x := p.donor(d, dv.u)
	if x == nil {
		return graph.RepairStats{}, false
	}
	stale := p.gOf != d || p.gGen != d.Gen()
	p.gOf, p.gGen = d, d.Gen()
	xu, y := int32(x.dv.u), int32(dv.u)
	if p.wts != nil {
		if stale || p.gWGen != p.wts.Gen() {
			p.gwcsr.ResetUnderlying(d, p.wts)
			p.gWGen = p.wts.Gen()
		}
		if p.wdds == nil {
			p.wdds = graph.NewWDeltaScratch(p.game.N())
		}
		return p.gwcsr.DeriveRowsWeighted(dv.rows, x.dv.rows, dv.woff, x.dv.woff, xu, y, p.wdds)
	}
	if stale {
		p.gcsr.ResetUnderlying(d)
	}
	if p.dds == nil {
		p.dds = graph.NewDeltaScratch(p.game.N())
	}
	return p.gcsr.DeriveRows(dv.rows, x.dv.rows, xu, y, p.dds)
}

// donor returns the freshest entry other than player y's whose rows are
// exact for d, or nil.
func (p *CachePool) donor(d *graph.Digraph, y int) *poolEntry {
	for _, e := range p.fresh {
		if e != nil && e.dv.u != y && p.exact(e, d) {
			return e
		}
	}
	return nil
}

// exact reports whether e's rows are dist_{G−x} for d's current arc
// set: the journal shows no edge change outside x's own incident edges
// since e synced (or d carries e's content anchor), and in a weighted
// pool e is at the live weights generation.
func (p *CachePool) exact(e *poolEntry, d *graph.Digraph) bool {
	if p.wts != nil && e.dv.wgen != p.wts.Gen() {
		return false
	}
	if e.graph == d {
		if e.gen == d.Gen() {
			return true
		}
		dl, ok := d.DeltaSince(e.gen, e.dv.u, 0)
		return ok && !dl.Oversized
	}
	aid, agen := d.Anchor()
	return aid == e.aid && agen == e.agen
}

// SkipResponse reports whether player u's whole best-response scan can
// be skipped: the round-level memo proves the graph is anchored exactly
// where it was when u last answered "no improving move", so the scan
// would return the same answer. The caller must treat a true return as
// a non-improving BestResponse (the zero value).
func (p *CachePool) SkipResponse(d *graph.Digraph, u int) bool {
	if p == nil || p.closed || p.resp == nil {
		return false
	}
	r := p.resp[u]
	if !r.ok {
		return false
	}
	if p.wts != nil && r.wgen != p.wts.Gen() {
		return false
	}
	if aid, agen := d.Anchor(); aid == r.aid && agen == r.agen {
		p.ctr.memoHits.Add(1)
		return true
	}
	return false
}

// NoteResponse records the outcome of player u's best-response scan
// against d (before any accepted move is applied): a non-improving
// answer is memoised under the graph's current anchor, an improving one
// clears the memo (u is about to rewire).
func (p *CachePool) NoteResponse(d *graph.Digraph, u int, improved bool) {
	if p == nil || p.closed {
		return
	}
	if p.resp == nil {
		p.resp = make([]respEntry, p.game.N())
	}
	if improved {
		p.resp[u] = respEntry{}
		return
	}
	aid, agen := d.Anchor()
	e := respEntry{ok: true, aid: aid, agen: agen}
	if p.wts != nil {
		e.wgen = p.wts.Gen()
	}
	p.resp[u] = e
}

// ResetResponseMemo clears the round-level best-response memo. Engines
// call it when adopting an external pool: the memo may have been
// recorded by a different responder, whose "no improving move" answers
// do not transfer. Nil-safe, no-op after Close.
func (p *CachePool) ResetResponseMemo() {
	if p != nil && !p.closed {
		p.resp = nil
	}
}

// Close recycles every pooled matrix into the global allocator and
// marks the pool closed: further Invalidate/Acquire/Stats calls and a
// second Close are defined no-ops that never touch the recycled
// matrices (Acquire degrades to handing out plain Deviators). Nil-safe.
func (p *CachePool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for u, e := range p.entries {
		e.dv.releaseOwned()
		delete(p.entries, u)
	}
	p.used.Store(0)
	p.resp = nil
	p.fresh, p.gOf = [2]*poolEntry{}, nil // release the donors and the graph
}

// BytesUsed returns the bytes of distance matrices currently held by
// pooled entries. Like Stats it is safe to read at any time from any
// goroutine — the serve memory governor polls it across sessions while
// their pools are in use. Nil-safe.
func (p *CachePool) BytesUsed() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// BytesBudget returns the pool's byte budget (fixed at construction).
// Nil-safe.
func (p *CachePool) BytesBudget() int64 {
	if p == nil {
		return 0
	}
	return p.budget
}

// Stats returns the pool's lifetime counters. Safe to call at any time
// from any goroutine, including after Close.
func (p *CachePool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Acquires:     p.ctr.acquires.Load(),
		Hits:         p.ctr.hits.Load(),
		Fills:        p.ctr.fills.Load(),
		Repairs:      p.ctr.repairs.Load(),
		Unpooled:     p.ctr.unpooled.Load(),
		RowsPatched:  p.ctr.rowsPatched.Load(),
		RowsRefilled: p.ctr.rowsRefilled.Load(),
		FullRefills:  p.ctr.fullRefills.Load(),
		StampSkips:   p.ctr.stampSkips.Load(),
		DeltaRepairs: p.ctr.deltaRepairs.Load(),
		Resyncs:      p.ctr.resyncs.Load(),
		Derives:      p.ctr.derives.Load(),
		MemoHits:     p.ctr.memoHits.Load(),
	}
}
