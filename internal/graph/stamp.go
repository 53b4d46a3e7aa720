package graph

import (
	"slices"
	"sort"
	"sync/atomic"
)

// Generation stamps. Every mutation of a Digraph's arc set bumps a
// monotone graph generation and stamps the touched vertices with it, so
// cache layers can answer "has anything incident to u changed since I
// last looked?" in O(1) instead of rebuilding and diffing adjacency.
//
// Two stamped views are content-equal when their anchors coincide: an
// anchor is the identity of the graph that performed the most recent
// mutation plus that graph's generation at the time. Clones inherit the
// anchor, so a settled profile cloned many times (one clone per Run)
// still matches the anchor a pool recorded from an earlier clone — the
// anchor only moves when some instance actually mutates, at which point
// it re-roots to that instance. Anchor equality therefore soundly
// proves identical arc sets without hashing.
//
// An optional mutation journal records per-generation arc deltas so a
// cache that is a few generations behind can be repaired from the exact
// edge toggles instead of a full adjacency diff. The journal is opt-in
// (StartJournal) and never copied by Clone.

// digraphID hands out process-unique instance identities for anchors.
var digraphID atomic.Uint64

// arcDelta is one journal entry: the undirected edge toggles of a
// single mutation (normalized a<b; a toggle is recorded only when the
// mutation actually changed U(G), i.e. no brace partner kept the edge
// alive).
type arcDelta struct {
	gen    int64
	undAdd [][2]int32
	undRem [][2]int32
}

// journal is a bounded log of arcDeltas covering generations
// (base, latest]. When it overflows cap, the oldest half is dropped and
// base advances; DeltaSince calls reaching past base report !ok.
type journal struct {
	base    int64
	cap     int
	entries []arcDelta
}

func (j *journal) add(e arcDelta) {
	if j.cap > 0 && len(j.entries) >= j.cap {
		half := max(len(j.entries)/2, 1) // a one-entry journal drops its entry
		j.base = j.entries[half-1].gen
		j.entries = append(j.entries[:0], j.entries[half:]...)
	}
	j.entries = append(j.entries, e)
}

// bump advances the graph generation and re-roots the anchor at this
// instance. Called exactly once per successful mutation.
func (g *Digraph) bump() {
	if g.nodeGen == nil {
		return
	}
	g.gen++
	g.src = g.id
	g.srcGen = g.gen
}

// touch stamps v as last modified at the current generation.
func (g *Digraph) touch(v int) {
	if g.nodeGen != nil {
		g.nodeGen[v] = g.gen
	}
}

// Gen returns the graph generation: the number of mutations applied to
// this instance's lineage since construction.
func (g *Digraph) Gen() int64 { return g.gen }

// NodeGen returns the generation at which v was last touched by a
// mutation (as endpoint of an added/removed arc).
func (g *Digraph) NodeGen(v int) int64 {
	if g.nodeGen == nil {
		return 0
	}
	return g.nodeGen[v]
}

// TouchedSince reports whether any mutation since generation gen
// involved v as an endpoint.
func (g *Digraph) TouchedSince(v int, gen int64) bool {
	return g.NodeGen(v) > gen
}

// Anchor returns the content anchor (source instance id, source
// generation). Equal anchors imply identical arc sets; the converse
// does not hold (independent builds of the same graph have different
// anchors), so anchor equality is a sound but incomplete fast path.
func (g *Digraph) Anchor() (uint64, int64) { return g.src, g.srcGen }

// StartJournal attaches a bounded mutation journal recording arc deltas
// from the current generation on. capEntries bounds the number of
// retained mutations (≤ 0 means unbounded). Any previous journal is
// replaced. Clones never inherit the journal.
func (g *Digraph) StartJournal(capEntries int) {
	g.j = &journal{base: g.gen, cap: capEntries}
}

// record appends a journal entry for the mutation that just bumped the
// generation.
func (g *Digraph) record(e arcDelta) {
	if g.j == nil {
		return
	}
	e.gen = g.gen
	g.j.add(e)
}

// undToggle reports whether changing the arc owner->v changes the
// undirected edge {owner,v}: it does unless the brace partner v->owner
// keeps the edge alive. Mutations only ever alter out[owner], so the
// reverse arc can be checked before or after the mutation.
func (g *Digraph) undToggle(owner, v int) bool {
	return !g.HasArc(v, owner)
}

func normEdge(a, b int) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{int32(a), int32(b)}
}

// EdgeDelta is the net undirected-edge delta DeltaSince reports.
type EdgeDelta struct {
	// Removed and Added are sorted lexicographically and consistent with
	// the current graph (multi-generation toggles cancel).
	Removed, Added [][2]int32
	// Oversized reports that the net delta has more edges than the
	// caller's limit; Removed and Added are then left nil.
	Oversized bool
}

// DeltaSince reports the net undirected-edge delta of this graph
// relative to its state at generation since. ok is false when the
// journal does not cover (since, Gen()] — the caller must fall back to
// a full diff.
//
// A non-negative limit caps the net delta the caller can use: a larger
// one is reported as Oversized as soon as the remaining journal entries
// could no longer cancel it back under the limit, before any list is
// built or sorted. A negative limit always nets the whole delta.
func (g *Digraph) DeltaSince(since int64, limit int) (dl EdgeDelta, ok bool) {
	if since == g.gen {
		return dl, true
	}
	if g.j == nil || since < g.j.base || since > g.gen {
		return dl, false
	}
	// Entries are in generation order: seek past since instead of
	// scanning the whole window.
	es := g.j.entries
	es = es[sort.Search(len(es), func(i int) bool { return es[i].gen > since }):]
	// First pass: the raw toggle count, which bounds how far the
	// remaining entries can still cancel the net delta.
	raw := 0
	for i := range es {
		raw += len(es[i].undAdd) + len(es[i].undRem)
	}
	if raw == 0 {
		return dl, true
	}
	net := make(map[[2]int32]int8, min(raw, 64))
	nonzero, left := 0, raw
	toggle := func(ed [2]int32, by int8) {
		c := net[ed]
		switch {
		case c == 0:
			nonzero++
		case c+by == 0:
			nonzero--
		}
		net[ed] = c + by
		left--
	}
	for i := range es {
		for _, ed := range es[i].undAdd {
			toggle(ed, 1)
		}
		for _, ed := range es[i].undRem {
			toggle(ed, -1)
		}
		if limit >= 0 && nonzero-left > limit {
			break // left is 0 after the last entry: the net delta itself
		}
	}
	if limit >= 0 && nonzero-left > limit {
		dl.Oversized = true
		return dl, true
	}
	for ed, c := range net {
		switch {
		case c > 0:
			dl.Added = append(dl.Added, ed)
		case c < 0:
			dl.Removed = append(dl.Removed, ed)
		}
	}
	sortEdges(dl.Removed)
	sortEdges(dl.Added)
	return dl, true
}

func sortEdges(es [][2]int32) {
	slices.SortFunc(es, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
}
