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
// and syncs it lazily when the graph has moved on since the entry was
// last used. Converged and converging rounds — the bulk of any dynamics
// run — then cost zero fills: each acquisition is a version check plus,
// at most, work proportional to the damage of the accepted moves.
//
// Shared rows. dist_{G-u} and dist_G agree in almost every row: deleting
// u lengthens the distances from a source s only when some child of u on
// s's shortest-path DAG has no other parent one level up
// (graph.DeletionDamage). So the pool keeps one exact matrix D = dist_G
// of the whole graph, stored raw in the weighted tier too, over the
// full-graph CSR (WCSR) it packs, and each entry keeps only the rows of
// dist_{G-u} that u's deletion damages, each a copy of D's row repaired
// in place over the pool's CSR with u blocked (graph.RowsWithout).
// Every other row an entry reads is D's; column u of a shared row is
// dist_G(v,u), not InfDist, and the entry masks it with inMin[u] = -1
// (distcache.go). Memory is O(n²) for D plus the damaged rows, instead
// of O(n³).
//
// The acquisition ladder, cheapest proof first:
//
//	StampSkip → sync D → damage test → private refill
//
//   - StampSkip: an entry already synced to D's current version, with
//     in(u) and its offsets unchanged, is exact — the stamps (same
//     instance and generation, an untouched u, or a matching content
//     anchor) prove it without touching a row.
//   - Sync D: D is brought to the live graph once per change, not once
//     per entry. The mutation journal's edge delta (and, weighted, the
//     weights change log: a reweighted edge is removed(old) +
//     added(new)) repairs it in place (graph.RepairRows /
//     RepairRowsWeighted), touching only the vertices whose distance
//     changes. A whole fill remains only when the journal cannot cover
//     the gap or the delta is past the repair caps. D keeps a version,
//     bumped whenever the graph changed, and per row the version at
//     which its content last changed.
//   - Damage test: an entry behind D's version re-runs the lost-parent
//     test over D's rows; in(u) and the component labels of G-u (one
//     BFS over the CSR with u blocked) are refreshed with it.
//   - Private refill: each damaged row is a copy of D's row repaired in
//     place with u blocked, in both tiers.
//
// Every rung is exact: an entry's rows equal a whole fill of G-u outside
// column u, bit for bit, so pooled responders return what the uncached
// Deviator — plain per-candidate BFS, or Dijkstra under weights —
// returns; tests pin the pool against that reference. On a graph without
// a journal (Clone never copies one) every change takes a whole fill of
// D and a damage test per entry.
//
// Derived state. The SUM memo, the MAX level sets and the stability
// streak are maintained from content alone: a sync stales candidate v
// when its shared row's content changed since the entry synced, when
// its private row's content changed, when v moved between private and
// shared, or when its offset changed. So a journaled pool and a
// journal-less one reach the same entry state. The level sets of the
// shared rows live in the pool, patched row by row as D changes, and
// each MAX entry keeps level sets for its private rows only.
//
// Admission is static: players are pooled first-come within the byte
// budget, and everyone else gets a plain per-call Deviator. Dynamics
// visit players cyclically, for which any evict-on-admission policy
// (LRU included) degenerates to zero hits plus churn; a static resident
// set keeps budget/per players at full speed and leaves the rest
// exactly as fast as the refill baseline. The budget bounds what the
// pool holds (account): D, its row versions, CSR and level sets, the
// sync scratch, and per entry its private rows and level sets, inMin,
// offsets, labels and SUM memo and bounds. Not charged: the graph
// kernels' O(n) working scratch and the pool's per-player round memo
// and eviction flags. Entries vary in size, so the budget is kept where
// things grow, and nothing evicted comes back:
//
//   - An entry whose sync, or whose scan (charged on Release), would
//     push the pool past the budget is evicted, and its player is
//     served unpooled from then on.
//   - D's level sets are built only if they fit, and dropped for good,
//     with the entries', if D's own growth (a repacked CSR, deeper
//     level sets) later crosses the budget; MAX scans then stay on the
//     row kernel.
//   - Should D still not fit, entries are evicted in player order until
//     it does, and D itself goes — with every player unpooled — only
//     when it no longer fits alone.
//
// Concurrency contract: the pool is single-goroutine — every method
// and every acquired Deviator belongs to the goroutine that drives it
// (a dynamics engine's loop, or a serve session under its lock), and a
// caller holds at most one acquired Deviator at a time. The one
// exception is monitoring: Stats and BytesUsed read atomics, so serve's
// memory governor and /statsz may poll them from any goroutine while
// the pool is in use.

// DefaultPoolBudget caps the total bytes a CachePool keeps alive: 1 GiB.
// The bbncg -poolmb flag overrides it.
var DefaultPoolBudget int64 = 1 << 30

// PoolStats counts what a CachePool did over its lifetime. D is the
// pool's shared distance matrix of the whole graph.
type PoolStats struct {
	Acquires int64 // total Acquire calls
	Hits     int64 // acquisitions served from a live entry
	Fills    int64 // whole fills of D (first use, journal gaps, repairs past their caps)
	Repairs  int64 // syncs of D that found the graph changed (delta repairs, full refills, resyncs)
	Unpooled int64 // acquisitions served by a plain Deviator (over budget or closed)

	RowsPatched  int64 // rows of D improved in place by the delta repair
	RowsRefilled int64 // damaged rows: D's, repaired in place, plus entries' private rows
	FullRefills  int64 // syncs of D whose delta was past the repair cap (also counted in Fills)

	StampSkips   int64 // stale acquisitions settled by stamps alone (no damage test, no row touched)
	DeltaRepairs int64 // syncs of D repaired from the journal delta
	Resyncs      int64 // syncs of D the journal could not cover, answered by a whole fill (also counted in Fills)
	MemoHits     int64 // best-response scans skipped by the round-level memo
}

// poolCounters is the atomic mirror of PoolStats: the pool's owning
// goroutine is the only writer, but Stats may be read concurrently
// from any goroutine (see the concurrency contract).
type poolCounters struct {
	acquires, hits, fills, repairs, unpooled atomic.Int64
	rowsPatched, rowsRefilled, fullRefills   atomic.Int64
	stampSkips, deltaRepairs, resyncs        atomic.Int64
	memoHits                                 atomic.Int64
}

// CachePool keeps per-player cached Deviators alive across the rounds of
// a dynamics run (or any other sequence of locally-mutated graphs).
type CachePool struct {
	game   *Game
	budget int64
	// used is atomic only so external monitors (bbncg serve's memory
	// governor) can read it without the single-goroutine pool lock; all
	// writers are the pool's owning goroutine.
	used    atomic.Int64
	version int64 // bumped by Invalidate
	entries map[int]*poolEntry
	resp    []respEntry // round-level best-response memo, indexed by player
	out     []bool      // players evicted for budget: served unpooled from then on
	closed  bool
	ctr     poolCounters

	// wts makes this a weighted pool (NewWeightedCachePool): D holds raw
	// weighted distances and entries add their offsets at merge time.
	// Weight mutations are a second staleness stream beside the pool
	// version — entries remember the weights generation they were synced
	// to, so weight-only changes need no Invalidate call.
	wts *graph.Weights

	sh      *shared // nil until the first pooled acquisition
	shBytes int64   // bytes of sh charged to used
}

// shared is the pool's one exact distance matrix of the whole graph and
// the state kept beside it.
type shared struct {
	dist   []int32 // flat n×n dist_G (raw weighted distances in a weighted pool)
	rowVer []int64 // rowVer[s]: ver at which row s's content last changed
	ver    int64   // bumped by every sync that found the graph changed
	lc     *graph.LevelCache
	// noLevels: the level sets did not fit the budget (sharedLevels).
	noLevels bool

	// The graph D describes: the CSR (WCSR when weighted) it was packed
	// from, the instance and generation, its content anchor and the
	// weights generation.
	csr  graph.CSR
	wcsr graph.WCSR
	of   *graph.Digraph
	gen  int64
	aid  uint64
	agen int64
	wgen int64

	// Sync scratch, sized once so a sync never grows what the pool
	// holds: the row-repair buffers (D's repairs and the private rows
	// share them), the damaged rows and the destinations of their
	// refills, per-vertex marks and private indices, and the component
	// BFS queue.
	ds      graph.DeltaScratch
	damaged []int32
	dst     [][]int32
	mark    []bool
	priv    []int32
	stale   []int32
	queue   []int32
}

type poolEntry struct {
	dv      *Deviator
	version int64
	bytes   int64 // charged to used

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
	return &CachePool{
		game:    g,
		budget:  budgetBytes,
		entries: make(map[int]*poolEntry),
		out:     make([]bool, g.N()),
	}
}

// NewWeightedCachePool returns a pool whose entries evaluate under arc
// weights wts (nil wts degrades to NewCachePool).
func NewWeightedCachePool(g *Game, budgetBytes int64, wts *graph.Weights) *CachePool {
	p := NewCachePool(g, budgetBytes)
	p.wts = wts
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
// is stale and will be synced on its next acquisition. Staleness is
// pool-wide, not per-mover; the sync of an untouched player is a stamp
// comparison, so over-invalidation stays cheap. Nil-safe and a no-op
// after Close so disabled-pool call sites stay branchless.
func (p *CachePool) Invalidate() {
	if p != nil && !p.closed {
		p.version++
	}
}

// Acquire returns a Deviator for player u evaluating against d, synced
// to d's current state: a pooled entry is synced in place if stale, a
// new entry is built if the budget still has room, and a plain uncached
// Deviator is returned otherwise (always after Close). The caller must
// Release the Deviator when done with it, must not use it after the
// pool's next Acquire, and must not hold two acquired Deviators at once.
func (p *CachePool) Acquire(d *graph.Digraph, u int) *Deviator {
	p.ctr.acquires.Add(1)
	if p.closed || p.out[u] {
		p.ctr.unpooled.Add(1)
		return NewWeightedDeviator(p.game, d, u, p.wts)
	}
	e, ok := p.entries[u]
	if ok && e.version == p.version && (p.wts == nil || e.dv.wgen == p.wts.Gen()) {
		e.dv.noteStable() // untouched graph: strongest stability signal
		p.ctr.hits.Add(1)
		return e.dv
	}
	if p.syncShared(d) {
		// D's sync may have evicted entries to stay within budget.
		if e, ok = p.entries[u]; ok {
			p.syncEntry(e, d)
		} else if !p.out[u] {
			e = p.newEntry(d, u)
		}
		if e != nil && p.account(e) {
			e.version = p.version
			e.graph, e.gen = d, d.Gen()
			e.aid, e.agen = d.Anchor()
			if ok {
				p.ctr.hits.Add(1)
			}
			return e.dv
		}
	}
	p.ctr.unpooled.Add(1)
	return NewWeightedDeviator(p.game, d, u, p.wts)
}

// syncShared brings D to d's current state (creating it on first use),
// reporting false when the pool cannot hold it: a weighted pool whose
// distances would alias InfDist, or a budget D does not fit.
func (p *CachePool) syncShared(d *graph.Digraph) bool {
	sh := p.sh
	if sh == nil {
		n := p.game.N()
		if p.wts != nil && !graph.FitsWeightedCache(n, p.wts.MaxW()) {
			return false // offsets would alias InfDist: Dijkstra fallback
		}
		p.sh = &shared{
			rowVer:  make([]int64, n),
			damaged: make([]int32, 0, n),
			dst:     make([][]int32, 0, n),
			mark:    make([]bool, n),
			priv:    make([]int32, n),
			stale:   make([]int32, 0, n),
			queue:   make([]int32, 0, n),
		}
		p.pack(d)
		if p.used.Load()+p.sharedBytes()+4*int64(n)*int64(n) > p.budget {
			p.dropShared() // D does not fit: every player is served unpooled
			return false
		}
		p.sh.dist = make([]int32, n*n)
		p.refillShared(d)
		p.stampShared(d)
		return p.account(nil)
	}
	if sh.of == d && sh.gen == d.Gen() && (p.wts == nil || sh.wgen == p.wts.Gen()) {
		return true
	}
	if aid, agen := d.Anchor(); aid == sh.aid && agen == sh.agen && (p.wts == nil || sh.wgen == p.wts.Gen()) {
		p.stampShared(d) // a clone of the same arc set: D is exact
		return true
	}
	p.repairShared(d)
	p.stampShared(d)
	return p.account(nil)
}

// pack repacks the pool's full-graph CSR (WCSR at the live weights) for
// d's current state.
func (p *CachePool) pack(d *graph.Digraph) {
	if p.wts != nil {
		p.sh.wcsr.ResetUnderlying(d, p.wts)
	} else {
		p.sh.csr.ResetUnderlying(d)
	}
}

// stampShared records d's current state as the one D describes.
func (p *CachePool) stampShared(d *graph.Digraph) {
	sh := p.sh
	sh.of, sh.gen = d, d.Gen()
	sh.aid, sh.agen = d.Anchor()
	if p.wts != nil {
		sh.wgen = p.wts.Gen()
	}
}

// repairShared brings D from the state it was stamped at to d's: the
// journal delta (with the weights change log) repairs it in place, and
// a whole refill covers a gap or a delta past the repair caps.
func (p *CachePool) repairShared(d *graph.Digraph) {
	sh := p.sh
	n := p.game.N()
	if sh.of != d {
		p.ctr.resyncs.Add(1)
		p.refillShared(d)
		return
	}
	dl, ok := d.DeltaSince(sh.gen, graph.RepairCap(n))
	var changes []graph.WeightChange
	if p.wts != nil && ok {
		changes, ok = p.wts.ChangesSince(sh.wgen)
	}
	switch {
	case !ok:
		p.ctr.resyncs.Add(1)
		p.refillShared(d)
		return
	case dl.Oversized:
		p.ctr.fullRefills.Add(1)
		p.refillShared(d)
		return
	}
	var st graph.RepairStats
	if p.wts == nil {
		if len(dl.Removed)+len(dl.Added) == 0 {
			return // only brace halves moved: U(G) and D are unchanged
		}
		p.pack(d)
		st = sh.csr.RepairRows(sh.dist, dl.Removed, dl.Added, &sh.ds)
	} else {
		p.pack(d)
		removed, added := p.weightedDelta(dl, changes)
		if len(removed)+len(added) == 0 {
			return // no edge of G moved or changed weight
		}
		st = sh.wcsr.RepairRowsWeighted(sh.dist, removed, added, &sh.ds)
	}
	if st.FullRefill {
		p.ctr.fullRefills.Add(1)
		p.refillShared(d)
		return
	}
	p.ctr.repairs.Add(1)
	p.ctr.deltaRepairs.Add(1)
	p.ctr.rowsPatched.Add(int64(st.RowsPatched))
	p.ctr.rowsRefilled.Add(int64(st.RowsRefilled))
	p.bump(st.Changed)
}

// weightedDelta labels the journal's edge delta with weights — a
// removed edge with the weight D saw, an added one with its current
// weight — and adds every reweighted edge of the graph as removed(old)
// + added(new). sh.wcsr must already describe d.
func (p *CachePool) weightedDelta(dl graph.EdgeDelta, changes []graph.WeightChange) (removed, added []graph.WEdge) {
	old := make(map[[2]int32]int32, len(changes))
	for _, ch := range changes {
		old[[2]int32{ch.U, ch.V}] = ch.Old
	}
	for _, e := range dl.Removed {
		w, ok := old[e]
		if !ok {
			w = p.wts.Of(int(e[0]), int(e[1]))
		}
		removed = append(removed, graph.WEdge{A: e[0], B: e[1], W: w})
	}
	for _, e := range dl.Added {
		added = append(added, graph.WEdge{A: e[0], B: e[1], W: p.wts.Of(int(e[0]), int(e[1]))})
	}
	c := &p.sh.wcsr
	for _, ch := range changes {
		e := [2]int32{ch.U, ch.V}
		if slices.Contains(dl.Added, e) || !slices.Contains(c.Nbrs[c.Indptr[ch.U]:c.Indptr[ch.U+1]], ch.V) {
			continue // new with its current weight, or no edge of the graph
		}
		removed = append(removed, graph.WEdge{A: ch.U, B: ch.V, W: ch.Old})
		added = append(added, graph.WEdge{A: ch.U, B: ch.V, W: ch.New})
	}
	return removed, added
}

// refillShared fills D whole for d and bumps the rows whose content
// changed, so entries see exactly the rows a repair would have changed.
func (p *CachePool) refillShared(d *graph.Digraph) {
	sh := p.sh
	n := p.game.N()
	tmp := getInt32(n * n)
	p.pack(d)
	if p.wts != nil {
		sh.wcsr.DistanceRowsInto(tmp)
	} else {
		sh.csr.DistanceRowsInto(tmp)
	}
	changed := sh.stale[:0]
	for s := 0; s < n; s++ {
		if row := sh.dist[s*n : (s+1)*n]; !slices.Equal(row, tmp[s*n:(s+1)*n]) {
			copy(row, tmp[s*n:(s+1)*n])
			changed = append(changed, int32(s))
		}
	}
	putInt32(tmp)
	sh.stale = changed
	p.ctr.fills.Add(1)
	if sh.ver > 0 {
		p.ctr.repairs.Add(1)
	}
	p.bump(changed)
}

// bump records a sync that found the graph changed: D's version moves
// on, and the rows in changed (whose content moved) take it.
func (p *CachePool) bump(changed []int32) {
	sh := p.sh
	n := p.game.N()
	sh.ver++
	for _, s := range changed {
		sh.rowVer[s] = sh.ver
		if sh.lc != nil {
			sh.lc.SetRow(int(s), sh.dist[int(s)*n:(int(s)+1)*n])
		}
	}
}

// sharedLevels reports whether D's level sets are available, building
// them on first use if they fit the budget; bump keeps them patched
// afterwards. Sets that do not fit are never tried again.
func (p *CachePool) sharedLevels() bool {
	sh := p.sh
	if sh.lc == nil && !sh.noLevels {
		n := p.game.N()
		sh.lc = graph.NewLevelCache(n, n)
		for s := 0; s < n; s++ {
			sh.lc.SetRow(s, sh.dist[s*n:(s+1)*n])
		}
		p.charge(&p.shBytes, p.sharedBytes())
		if p.used.Load() > p.budget {
			p.dropLevels()
		}
	}
	return sh.lc != nil
}

// dropLevels releases the level sets of D and of every entry for good:
// MAX scans stay on the row kernel from then on.
func (p *CachePool) dropLevels() {
	p.sh.lc, p.sh.noLevels = nil, true
	p.charge(&p.shBytes, p.sharedBytes())
	for _, e := range p.entries {
		e.dv.lc, e.dv.inLv = nil, nil
		p.charge(&e.bytes, e.dv.retainedBytes())
	}
}

// damage returns the rows of D that deleting u damages, in increasing
// order (valid until the next call).
func (p *CachePool) damage(u int) []int32 {
	sh := p.sh
	if p.wts != nil {
		sh.damaged = sh.wcsr.DeletionDamage(sh.dist, int32(u), sh.damaged[:0])
	} else {
		sh.damaged = sh.csr.DeletionDamage(sh.dist, int32(u), sh.damaged[:0])
	}
	return sh.damaged
}

// relabel recomputes dv's component labels of G-u over the pool's CSR.
func (p *CachePool) relabel(dv *Deviator) {
	sh := p.sh
	if p.wts != nil {
		dv.comps, sh.queue = sh.wcsr.ComponentsWithout(dv.u, dv.label, sh.queue)
	} else {
		dv.comps, sh.queue = sh.csr.ComponentsWithout(dv.u, dv.label, sh.queue)
	}
	if cap(dv.seen) < dv.comps+1 {
		dv.seen = make([]bool, dv.comps+1)
	}
	dv.seen = dv.seen[:dv.comps+1]
}

// newEntry builds player u's entry against the synced D, or returns nil
// when it would not fit the budget.
func (p *CachePool) newEntry(d *graph.Digraph, u int) *poolEntry {
	n := p.game.N()
	dv := &Deviator{
		game:   p.game,
		u:      u,
		in:     d.In(u),
		label:  make([]int, n),
		cinf:   p.game.Cinf(),
		pool:   p,
		priv:   make([]int32, n),
		shared: p.sh.dist,
		inMin:  make([]int32, n),
	}
	dv.weigh(p.wts)
	if p.wts != nil {
		dv.woff = make([]int32, n)
	}
	damaged := p.damage(u)
	if p.used.Load()+dv.retainedBytes()+4*int64(len(damaged))*int64(n) > p.budget {
		return nil
	}
	if p.wts != nil {
		dv.rebuildWoff()
	}
	for v := range dv.priv {
		dv.priv[v] = -1
	}
	dv.rows = make([]int32, len(damaged)*n)
	dst := p.sh.dst[:0]
	for i, s := range damaged {
		dv.priv[s] = int32(i)
		dst = append(dst, dv.rows[i*n:(i+1)*n])
	}
	p.fillPrivate(u, damaged, dst)
	p.relabel(dv)
	dv.rebuildInMin()
	dv.dver = p.sh.ver
	e := &poolEntry{dv: dv}
	p.entries[u] = e
	return e
}

// fillPrivate refills rows srcs of dist_{G-u} into dst, one n-entry
// row per source, each repaired from D's row with u blocked.
func (p *CachePool) fillPrivate(u int, srcs []int32, dst [][]int32) {
	sh := p.sh
	sh.dst = dst
	if p.wts != nil {
		sh.wcsr.RowsWithout(sh.dist, srcs, dst, int32(u), &sh.ds)
	} else {
		sh.csr.RowsWithout(sh.dist, srcs, dst, int32(u), &sh.ds)
	}
	clear(dst) // drop the views: the rows may be released before the next fill
	p.ctr.rowsRefilled.Add(int64(len(srcs)))
}

// syncEntry brings entry e in step with d and the synced D: in(u) and
// the offsets, then — if D's version moved — the damage test, the
// component labels and the private rows, and finally the derived state
// (inMin, SUM memo, level sets, stability streak) from the candidates
// the sync staled.
func (p *CachePool) syncEntry(e *poolEntry, d *graph.Digraph) {
	dv, sh := e.dv, p.sh
	u, n := dv.u, p.game.N()
	mark := sh.mark
	aid, agen := d.Anchor()
	sameContent := aid == e.aid && agen == e.agen
	// in(u) can only have moved if u was an endpoint of some mutation.
	inSame := true
	if !sameContent && (e.graph != d || d.TouchedSince(u, e.gen)) {
		if in := d.In(u); !slices.Equal(in, dv.in) {
			dv.in, inSame = in, false
		}
	}
	// A reweighted pair {u,x} moves x's offset; every reweighted edge
	// of G reaches the rows through D's version.
	if p.wts != nil && dv.wgen != p.wts.Gen() {
		changes, ok := p.wts.ChangesSince(dv.wgen)
		for _, ch := range changes {
			if int(ch.U) == u || int(ch.V) == u {
				x := int(ch.U) + int(ch.V) - u
				dv.woff[x] = ch.New - 1
				mark[x] = true
			}
		}
		if !ok {
			old := slices.Clone(dv.woff)
			dv.rebuildWoff()
			for v, o := range old {
				if dv.woff[v] != o {
					mark[v] = true
				}
			}
		}
		dv.wgen = p.wts.Gen()
	}
	moved := dv.dver != sh.ver
	if moved {
		p.syncRows(dv)
	}
	anchorStale := false
	for _, v := range dv.in {
		anchorStale = anchorStale || mark[v]
	}
	stale := sh.stale[:0]
	for v, m := range mark {
		if m {
			stale = append(stale, int32(v))
			mark[v] = false
		}
	}
	sh.stale = stale
	if 4*len(stale) > n {
		dv.memo = nil // a heavy sync: the memo would not pay for its upkeep
		dv.stable = 0
	} else {
		dv.memoRepair(stale, inSame)
		dv.noteStable()
	}
	if !inSame || anchorStale {
		dv.rebuildInMin()
		dv.inLv = nil
	}
	if !moved && inSame && len(stale) == 0 {
		p.ctr.stampSkips.Add(1)
	}
}

// syncRows re-runs dv's damage test against D, refills the damaged
// rows and relabels the components of G-u, marking in sh.mark every
// candidate whose row (as row(v) reads it) changed: a shared row whose
// content moved since the entry synced, a private row whose content
// moved, and a row that moved between private and shared.
func (p *CachePool) syncRows(dv *Deviator) {
	sh := p.sh
	u, n := dv.u, p.game.N()
	damaged := p.damage(u)
	need := len(damaged) * n
	staged := getInt32(need) // transient: the new rows beside the old
	dst := sh.dst[:0]
	for i := range damaged {
		dst = append(dst, staged[i*n:(i+1)*n])
	}
	p.fillPrivate(u, damaged, dst)
	newK := sh.priv
	for v := range newK {
		newK[v] = -1
	}
	for i, s := range damaged {
		newK[s] = int32(i)
	}
	privChanged := false
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		ok, nk := int(dv.priv[v]), int(newK[v])
		switch {
		case ok < 0 && nk < 0:
			if sh.rowVer[v] > dv.dver {
				sh.mark[v] = true
			}
		case ok >= 0 && nk >= 0:
			if !slices.Equal(dv.rows[ok*n:(ok+1)*n], staged[nk*n:(nk+1)*n]) {
				sh.mark[v] = true
				privChanged = true
			}
		default:
			sh.mark[v] = true
			privChanged = true
		}
	}
	copy(dv.priv, newK)
	if cap(dv.rows) < need || cap(dv.rows) > 2*need {
		dv.rows = make([]int32, need)
	}
	dv.rows = dv.rows[:need]
	copy(dv.rows, staged)
	putInt32(staged)
	if privChanged {
		dv.lc = nil
	}
	p.relabel(dv)
	dv.dver = sh.ver
}

// account recharges D's state and entry e (nil: none) at their current
// sizes and reports whether the pool is within budget with e (or, for
// nil, with D) still held. Over budget, e is evicted first; if D's own
// growth crossed the budget, D drops its level sets, then entries go in
// player order, and D itself — unpooling every player — only when it
// no longer fits alone.
func (p *CachePool) account(e *poolEntry) bool {
	p.charge(&p.shBytes, p.sharedBytes())
	if e != nil {
		p.charge(&e.bytes, e.dv.retainedBytes())
	}
	if p.used.Load() <= p.budget {
		return true
	}
	if e != nil {
		p.evict(e)
		if p.used.Load() <= p.budget {
			return false
		}
	}
	if !p.sh.noLevels {
		p.dropLevels()
	}
	for v := 0; v < len(p.out) && p.used.Load() > p.budget; v++ {
		if x, ok := p.entries[v]; ok {
			p.evict(x)
		}
	}
	if p.used.Load() > p.budget {
		p.dropShared()
	}
	return e == nil && p.sh != nil
}

// dropShared releases D, which no longer fits the budget alone, and
// serves every player unpooled from then on.
func (p *CachePool) dropShared() {
	p.sh = nil
	p.charge(&p.shBytes, 0)
	for v := range p.out {
		p.out[v] = true
	}
}

// charge moves the bytes charged at *at to b.
func (p *CachePool) charge(at *int64, b int64) {
	p.used.Add(b - *at)
	*at = b
}

// evict releases e's buffers and uncharges them; its player is served
// unpooled from then on.
func (p *CachePool) evict(e *poolEntry) {
	p.charge(&e.bytes, 0)
	delete(p.entries, e.dv.u)
	p.out[e.dv.u] = true
	e.dv.releaseOwned()
}

// settle charges what the scan on u's entry grew (Deviator.Release).
func (p *CachePool) settle(u int) {
	if e, ok := p.entries[u]; ok {
		p.account(e)
	}
}

// sharedBytes is every byte D's state retains (0 without D).
func (p *CachePool) sharedBytes() int64 {
	sh := p.sh
	if sh == nil {
		return 0
	}
	b := 4*int64(cap(sh.dist)+cap(sh.csr.Indptr)+cap(sh.csr.Nbrs)+cap(sh.wcsr.Indptr)+cap(sh.wcsr.Nbrs)+cap(sh.wcsr.W)) +
		8*int64(cap(sh.rowVer)) +
		4*int64(cap(sh.damaged)+cap(sh.priv)+cap(sh.stale)+cap(sh.queue)) +
		24*int64(cap(sh.dst)) + int64(cap(sh.mark))
	if sh.lc != nil {
		b += sh.lc.Bytes()
	}
	return b
}

// retainedBytes is every byte a pool entry retains: its private rows
// and level sets, the row index, inMin, offsets, labels, in(u), and the
// SUM memo and bounds.
func (dv *Deviator) retainedBytes() int64 {
	b := 4*int64(cap(dv.rows)+cap(dv.priv)+cap(dv.inMin)+cap(dv.woff)) +
		8*int64(cap(dv.label)+cap(dv.in)+cap(dv.sumSufIn)) + int64(cap(dv.seen)) +
		24*int64(cap(dv.sumSufT))
	for _, t := range dv.sumSufT {
		b += 8 * int64(cap(t))
	}
	if dv.lc != nil {
		b += dv.lc.Bytes()
	}
	if dv.inLv != nil {
		b += dv.inLv.Bytes()
	}
	if dv.memo != nil {
		b += 32 * int64(cap(dv.memo.rounds))
		for _, r := range dv.memo.rounds {
			b += 8 * int64(cap(r.costs))
		}
	}
	return b
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

// Close recycles every pooled buffer into the global allocator and
// marks the pool closed: further Invalidate/Acquire/Stats calls and a
// second Close are defined no-ops that never touch the recycled
// buffers (Acquire degrades to handing out plain Deviators). Nil-safe.
func (p *CachePool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, e := range p.entries {
		p.evict(e)
	}
	p.dropShared()
	p.resp = nil
}

// BytesUsed returns the bytes the pool currently holds: D's state and
// every entry's (see account). Like Stats it is safe to read at any
// time from any goroutine — the serve memory governor polls it across
// sessions while their pools are in use. Nil-safe.
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
		MemoHits:     p.ctr.memoHits.Load(),
	}
}
