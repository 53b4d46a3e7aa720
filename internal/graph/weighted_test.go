package graph

import (
	"math/rand"
	"testing"
)

// wRows fills a fresh weighted distance matrix over c.
func wRows(c *WCSR) []int32 {
	n := c.N()
	rows := make([]int32, n*n)
	c.DistanceRowsInto(rows)
	return rows
}

// dijkstraRow is the weighted reference SSSP the fill, the in-place
// repair and the deletion rows are checked against: the O(n²)
// array-scan Dijkstra, which settles the closest unsettled vertex by a
// linear scan and shares no code (no heap, no settle loop) with the
// kernels it checks.
func (c *WCSR) dijkstraRow(src int32, row []int32) {
	done := make([]bool, len(row))
	for i := range row {
		row[i] = InfDist
	}
	row[src] = 0
	for {
		v := -1
		for w, dw := range row {
			if !done[w] && dw < InfDist && (v < 0 || dw < row[v]) {
				v = w
			}
		}
		if v < 0 {
			return
		}
		done[v] = true
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			if w := c.Nbrs[k]; row[v]+c.W[k] < row[w] {
				row[w] = row[v] + c.W[k]
			}
		}
	}
}

func TestWeightsDeterminismAndSet(t *testing.T) {
	w := NewWeights(16, 7, 9)
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			got := w.Of(u, v)
			if u == v {
				if got != 0 {
					t.Fatalf("Of(%d,%d) = %d, want 0", u, v, got)
				}
				continue
			}
			if got < 1 || got > 9 {
				t.Fatalf("Of(%d,%d) = %d out of [1,9]", u, v, got)
			}
			if sym := w.Of(v, u); sym != got {
				t.Fatalf("asymmetric: Of(%d,%d)=%d, Of(%d,%d)=%d", u, v, got, v, u, sym)
			}
		}
	}
	w2 := NewWeights(16, 7, 9)
	if w2.Of(3, 11) != w.Of(3, 11) {
		t.Fatal("same seed, different base weight")
	}
	if err := w.Set(2, 2, 1); err == nil {
		t.Fatal("Set on a self-pair succeeded")
	}
	if err := w.Set(0, 1, 0); err == nil {
		t.Fatal("Set below 1 succeeded")
	}
	if err := w.Set(0, 1, 10); err == nil {
		t.Fatal("Set above MaxW succeeded")
	}
	g0 := w.Gen()
	if err := w.Set(0, 1, w.Of(0, 1)); err != nil || w.Gen() != g0 {
		t.Fatalf("no-op Set: err=%v gen %d -> %d", err, g0, w.Gen())
	}
	if err := w.Set(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if w.Of(0, 1) != 5 || w.Of(1, 0) != 5 {
		t.Fatalf("override not symmetric: %d / %d", w.Of(0, 1), w.Of(1, 0))
	}
	if w.Gen() != g0+1 {
		t.Fatalf("gen = %d, want %d", w.Gen(), g0+1)
	}
}

func TestWeightsChangesSince(t *testing.T) {
	w := NewWeights(8, 1, 100)
	base01 := w.Of(0, 1)
	g0 := w.Gen()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Set(0, 1, 40))
	must(w.Set(0, 1, 60)) // nets to base01 -> 60
	must(w.Set(2, 3, 10))
	must(w.Set(2, 3, w.baseOf(2, 3))) // cancels if base was not 10
	ch, ok := w.ChangesSince(g0)
	if !ok {
		t.Fatal("log should cover the gap")
	}
	found01 := false
	for _, c := range ch {
		if c.U == 0 && c.V == 1 {
			found01 = true
			if c.Old != base01 || c.New != 60 {
				t.Fatalf("netted {0,1} = %+v, want old %d new 60", c, base01)
			}
		}
		if c.U == 2 && c.V == 3 && c.Old == c.New {
			t.Fatalf("cancelled pair survived: %+v", c)
		}
	}
	if !found01 {
		t.Fatalf("missing {0,1} in %+v", ch)
	}
	if ch2, ok := w.ChangesSince(w.Gen()); !ok || len(ch2) != 0 {
		t.Fatalf("ChangesSince(now) = %v, %v", ch2, ok)
	}
	// Overflow the bounded log: a generation before the retained window
	// must report ok=false.
	small := NewWeights(2, 0, 1000)
	start := small.Gen()
	val := int32(1)
	for i := 0; i < small.logCap+small.logCap/2+4; i++ {
		val++
		must(small.Set(0, 1, val))
	}
	if _, ok := small.ChangesSince(start); ok {
		t.Fatal("overflowed log still claimed coverage")
	}
	if _, ok := small.ChangesSince(small.Gen() - 1); !ok {
		t.Fatal("recent generation not covered after overflow")
	}
}

// The whole weighted fill, the array-scan Dijkstra reference, and (at
// unit weights) the unweighted BFS must agree cell for cell, with and
// without an excluded vertex and across weight ranges.
func TestSteppingMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(32)
		d := randomDigraphFor(n, 3, rng)
		a := d.Underlying()
		maxW := []int32{1, 2, 7, 100}[rng.Intn(4)]
		wts := NewWeights(n, rng.Int63(), maxW)
		u := rng.Intn(n)
		c := NewWCSRExcluding(a, wts, u)
		got := wRows(c)
		want := make([]int32, n*n)
		for s := 0; s < n; s++ {
			c.dijkstraRow(int32(s), want[s*n:(s+1)*n])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d maxW=%d u=%d cell (%d,%d): fill %d, dijkstra %d",
					n, maxW, u, i/n, i%n, got[i], want[i])
			}
		}
		if maxW == 1 {
			bfs := NewCSRExcluding(a, u).DistanceRows()
			for i := range bfs {
				if got[i] != bfs[i] {
					t.Fatalf("unit weights diverge from BFS at cell (%d,%d): %d vs %d",
						i/n, i%n, got[i], bfs[i])
				}
			}
		}
	}
}

// Offsets at merge time must equal merging pre-shifted rows — the
// encoding the deviation cache relies on: anchor v's raw weighted row
// read at offset w(u,v) − 1 by MinInto and SumMerge gives what the same
// row with every finite entry shifted by that offset gives.
func TestWeightedOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 20
	d := randomDigraphFor(n, 3, rng)
	wts := NewWeights(n, 3, 9)
	c := NewWCSRExcluding(d.Underlying(), wts, 0)
	plain := wRows(c)
	vec := make([]int32, n)
	for i := range vec {
		vec[i] = InfDist
	}
	vec[0] = -1
	want := append([]int32(nil), vec...)
	for v := 1; v < n; v++ {
		off := wts.Of(0, v) - 1
		row := plain[v*n : (v+1)*n]
		shifted := make([]int32, n)
		for w, r := range row {
			shifted[w] = r
			if r < InfDist {
				shifted[w] = r + off
			}
		}
		gs, gr := SumMerge(vec, row, off)
		ws, wr := SumMerge(vec, shifted, 0)
		if gs != ws || gr != wr {
			t.Fatalf("anchor %d: offset merge (%d,%d), shifted merge (%d,%d)", v, gs, gr, ws, wr)
		}
		MinInto(vec, row, off)
		MinInto(want, shifted, 0)
		for w := range vec {
			if vec[w] != want[w] {
				t.Fatalf("anchor %d cell %d: offset fold %d, shifted fold %d", v, w, vec[w], want[w])
			}
		}
	}
}

// weightSnapshot materialises every pair weight so a mutation stream's
// removed edges can be labelled with the weights the rows were built on.
func weightSnapshot(wts *Weights) map[[2]int32]int32 {
	snap := make(map[[2]int32]int32)
	n := wts.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			snap[[2]int32{int32(u), int32(v)}] = wts.Of(u, v)
		}
	}
	return snap
}

// weightedDelta builds the removed/added WEdge lists of a combined
// topology + weight mutation: removed edges carry their old weight,
// added edges the new one, and surviving edges whose weight moved are
// expressed as removed(old) + added(new).
func weightedDelta(old, cur Und, skip int, snap map[[2]int32]int32, wts *Weights) (removed, added []WEdge) {
	rp, ap := DiffUnd(old, cur, skip)
	for _, e := range rp {
		removed = append(removed, WEdge{A: e[0], B: e[1], W: snap[e]})
	}
	for _, e := range ap {
		added = append(added, WEdge{A: e[0], B: e[1], W: wts.Of(int(e[0]), int(e[1]))})
	}
	for v := 0; v < len(old); v++ {
		for _, w := range old[v] {
			if w <= v || v == skip || w == skip || !cur.HasEdge(v, w) {
				continue
			}
			key := [2]int32{int32(v), int32(w)}
			if nw := wts.Of(v, w); nw != snap[key] {
				removed = append(removed, WEdge{A: key[0], B: key[1], W: snap[key]})
				added = append(added, WEdge{A: key[0], B: key[1], W: nw})
			}
		}
	}
	return removed, added
}

func checkWeightedRepair(t *testing.T, old, cur Und, skip int, snap map[[2]int32]int32, wts *Weights) RepairStats {
	t.Helper()
	n := len(old)
	oldCSR := &WCSR{}
	// Build the old WCSR against the snapshot weights by hand.
	{
		indptr := make([]int32, n+1)
		var nbrs, ws []int32
		for v, nb := range old {
			if v != skip {
				for _, w := range nb {
					if w != skip {
						nbrs = append(nbrs, int32(w))
						lo, hi := int32(v), int32(w)
						if lo > hi {
							lo, hi = hi, lo
						}
						ws = append(ws, snap[[2]int32{lo, hi}])
					}
				}
			}
			indptr[v+1] = int32(len(nbrs))
		}
		oldCSR.Indptr, oldCSR.Nbrs, oldCSR.W = indptr, nbrs, ws
	}
	rows := wRows(oldCSR)
	newCSR := NewWCSRExcluding(cur, wts, skip)
	removed, added := weightedDelta(old, cur, skip, snap, wts)
	before := append([]int32(nil), rows...)
	st := newCSR.RepairRowsWeighted(rows, removed, added, &DeltaScratch{})
	if st.FullRefill {
		for i := range rows {
			if rows[i] != before[i] {
				t.Fatalf("skip=%d: FullRefill report touched cell %d", skip, i)
			}
		}
		newCSR.DistanceRowsInto(rows)
	}
	want := make([]int32, n*n)
	for s := 0; s < n; s++ {
		newCSR.dijkstraRow(int32(s), want[s*n:(s+1)*n])
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("skip=%d cell (%d,%d): repaired %d, refilled %d (removed=%v added=%v stats=%+v)",
				skip, i/n, i%n, rows[i], want[i], removed, added, st)
		}
	}
	return st
}

// Weighted repair after mixed topology moves and weight changes must be
// bit-identical to a fresh Dijkstra refill, at every damage level.
func TestRepairRowsWeightedMatchesRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(28)
		d := randomDigraphFor(n, 3, rng)
		maxW := []int32{1, 3, 9, 50}[rng.Intn(4)]
		wts := NewWeights(n, rng.Int63(), maxW)
		old := d.Underlying().Clone()
		snap := weightSnapshot(wts)
		if rng.Intn(2) == 0 {
			mutateOneOwner(d, rng)
		}
		for k := rng.Intn(3); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = wts.Set(u, v, 1+int32(rng.Intn(int(maxW))))
			}
		}
		cur := d.Underlying()
		checkWeightedRepair(t, old, cur, -1, snap, wts) // no exclusion
		checkWeightedRepair(t, old, cur, rng.Intn(n), snap, wts)
	}
}

// The weighted twin of TestRepairRowsThresholdPaths: past RepairCap
// delta edges (reweights count as removed + added) the whole refill,
// within it the per-row repair, and both agree with Dijkstra.
func TestRepairRowsWeightedThresholdPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var full, repaired int
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		d := randomDigraphFor(n, 2, rng)
		wts := NewWeights(n, rng.Int63(), 7)
		old := d.Underlying().Clone()
		snap := weightSnapshot(wts)
		for moves := 1 + rng.Intn(4); moves > 0; moves-- {
			mutateOneOwner(d, rng)
		}
		cur := d.Underlying()
		removed, added := weightedDelta(old, cur, -1, snap, wts)
		st := checkWeightedRepair(t, old, cur, -1, snap, wts)
		if past := len(removed)+len(added) > RepairCap(n); st.FullRefill != past {
			t.Fatalf("trial %d n=%d: %d delta edges against cap %d, FullRefill=%v",
				trial, n, len(removed)+len(added), RepairCap(n), st.FullRefill)
		}
		if st.FullRefill {
			full++
		} else if st.RowsRefilled > 0 {
			repaired++
		}
	}
	if full == 0 || repaired == 0 {
		t.Fatalf("paths not both taken: %d whole refills, %d damaging repairs", full, repaired)
	}
}

// FuzzWeightedRepair drives the weighted incremental-repair path with
// fuzz-chosen graphs, weights and mutation streams: byte 1 sets the
// weights, bytes 2–4 pick up to three movers, and the tail names their
// new out-sets, every third byte a weight set instead. The composite
// delta stays within RepairCap (a weight set that would pass it is
// undone), and the repaired matrix must equal a scalar Dijkstra refill
// bit for bit — the weighted analogue of FuzzDeltaBFS.
func FuzzWeightedRepair(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, d := decodeGraph(data)
		if d == nil {
			return
		}
		n := d.N()
		maxW := int32(1)
		seed := int64(0)
		if len(data) > 1 {
			maxW = int32(data[1])%100 + 1
			seed = int64(data[1])
		}
		wts := NewWeights(n, seed, maxW)
		old := d.Underlying().Clone()
		snap := weightSnapshot(wts)
		fits := func() bool {
			removed, added := weightedDelta(old, d.Underlying(), -1, snap, wts)
			return len(removed)+len(added) <= RepairCap(n)
		}
		rest := data[min(2, len(data)):]
		movers := rest[:min(3, len(rest))]
		var outs, sets []byte
		for i, b := range rest[len(movers):] {
			if i%3 == 2 {
				sets = append(sets, b)
			} else {
				outs = append(outs, b)
			}
		}
		m := rewireMovers(d, movers, outs, fits)
		cur := d.Underlying()
		for _, b := range sets {
			// Weight mutation on a fuzz-chosen pair; only an edge of both
			// graphs carries it into the delta.
			u2, v2 := int(b)%n, (int(b)/7)%n
			if u2 == v2 {
				continue
			}
			prev := wts.Of(u2, v2)
			_ = wts.Set(u2, v2, int32(b)%maxW+1)
			if old.HasEdge(u2, v2) && cur.HasEdge(u2, v2) && !fits() {
				_ = wts.Set(u2, v2, prev)
			}
		}
		for _, skip := range []int{-1, m} {
			if st := checkWeightedRepair(t, old, cur, skip, snap, wts); st.FullRefill {
				t.Fatalf("skip=%d: delta past RepairCap %d", skip, RepairCap(n))
			}
		}
	})
}
