package graph

import (
	"math/rand"
	"testing"
)

// randomDigraphFor returns a random out-digraph on n vertices with the
// given budget ceiling, for repair tests.
func randomDigraphFor(n, maxB int, rng *rand.Rand) *Digraph {
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = rng.Intn(maxB + 1)
		if budgets[i] > n-1 {
			budgets[i] = n - 1
		}
	}
	return RandomOutDigraph(budgets, rng)
}

// mutateOneOwner rewires one random vertex's entire out-set.
func mutateOneOwner(d *Digraph, rng *rand.Rand) int {
	n := d.N()
	m := rng.Intn(n)
	b := d.OutDegree(m)
	if b == 0 {
		b = rng.Intn(2) // removing nothing, adding up to one arc
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < b {
		v := rng.Intn(n)
		if v != m && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	d.SetOut(m, out)
	return m
}

func checkRepairAgainstRefill(t *testing.T, old, cur Und, skip int) RepairStats {
	t.Helper()
	n := len(old)
	var oldCSR, newCSR *CSR
	if skip >= 0 {
		oldCSR, newCSR = NewCSRExcluding(old, skip), NewCSRExcluding(cur, skip)
	} else {
		oldCSR, newCSR = NewCSR(old), NewCSR(cur)
	}
	rows := oldCSR.DistanceRows()
	removed, added := DiffUnd(old, cur, skip)
	st := repairOrRefill(t, newCSR, rows, removed, added)
	want := newCSR.DistanceRows()
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("repair mismatch at cell (%d,%d): got %d want %d (removed=%v added=%v stats=%+v)",
				i/n, i%n, rows[i], want[i], removed, added, st)
		}
	}
	return st
}

// repairOrRefill runs RepairRows and, on a FullRefill report, checks
// that the rows were left untouched before refilling them whole — the
// caller's half of the contract.
func repairOrRefill(t *testing.T, c *CSR, rows []int32, removed, added [][2]int32) RepairStats {
	t.Helper()
	before := append([]int32(nil), rows...)
	st := c.RepairRows(rows, removed, added, &DeltaScratch{})
	if st.FullRefill {
		for i := range rows {
			if rows[i] != before[i] {
				t.Fatalf("FullRefill report touched cell %d", i)
			}
		}
		c.DistanceRowsInto(rows)
	}
	return st
}

// Repairing a cached matrix after a single-owner rewiring must agree
// exactly with a fresh refill, with and without an excluded vertex, at
// every damage level (the refill-fraction fallback included).
func TestRepairRowsMatchesRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		d := randomDigraphFor(n, 3, rng)
		old := d.Underlying()
		mutateOneOwner(d, rng)
		cur := d.Underlying()
		checkRepairAgainstRefill(t, old, cur, -1)
		checkRepairAgainstRefill(t, old, cur, rng.Intn(n))
	}
}

// Several accumulated moves form one composite delta — the lazy-repair
// shape the dynamics cache pool produces.
func TestRepairRowsCompositeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(32)
		d := randomDigraphFor(n, 2, rng)
		old := d.Underlying()
		for moves := 1 + rng.Intn(4); moves > 0; moves-- {
			mutateOneOwner(d, rng)
		}
		cur := d.Underlying()
		checkRepairAgainstRefill(t, old, cur, -1)
		checkRepairAgainstRefill(t, old, cur, rng.Intn(n))
	}
}

// A delta past RepairCap edges must take the whole-refill path (rows
// left untouched for the caller) and one within it the per-row repair,
// however many rows it damages; both must agree with a fresh fill.
func TestRepairRowsThresholdPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var full, repaired int
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(24)
		d := randomDigraphFor(n, 2, rng)
		old := d.Underlying()
		for moves := 1 + rng.Intn(6); moves > 0; moves-- {
			mutateOneOwner(d, rng)
		}
		cur := d.Underlying()
		removed, added := DiffUnd(old, cur, -1)
		st := checkRepairAgainstRefill(t, old, cur, -1)
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

func TestDiffUnd(t *testing.T) {
	d := NewDigraph(5)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(3, 4)
	old := d.Underlying()
	d.RemoveArc(1, 2)
	d.AddArc(1, 3)
	d.AddArc(2, 1) // re-adds edge {1,2} from the other side: no net change
	cur := d.Underlying()
	removed, added := DiffUnd(old, cur, -1)
	if len(removed) != 0 {
		t.Fatalf("removed = %v, want none (edge {1,2} is re-owned, not removed)", removed)
	}
	if len(added) != 1 || added[0] != [2]int32{1, 3} {
		t.Fatalf("added = %v, want [{1 3}]", added)
	}
	removed, added = DiffUnd(old, cur, 3)
	if len(removed) != 0 || len(added) != 0 {
		t.Fatalf("with skip=3: removed=%v added=%v, want none", removed, added)
	}
}

// The no-op delta must not touch the matrix.
func TestRepairRowsNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d := randomDigraphFor(12, 2, rng)
	c := NewCSR(d.Underlying())
	rows := c.DistanceRows()
	before := append([]int32(nil), rows...)
	st := c.RepairRows(rows, nil, nil, &DeltaScratch{})
	if st.RowsPatched+st.RowsRefilled != 0 || st.FullRefill {
		t.Fatalf("empty delta did work: %+v", st)
	}
	for i := range rows {
		if rows[i] != before[i] {
			t.Fatalf("empty delta changed cell %d", i)
		}
	}
}

// A warm repair scratch serves every later repair without allocating:
// D's repair and the deletion rows, in both tiers, run once per move,
// so a per-call allocation would be paid hundreds of times a run.
func TestRepairAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 200
	d := randomDigraphFor(n, 2, rng)
	old := d.Underlying()
	var cur Und
	var removed, added [][2]int32
	for len(removed) == 0 {
		mutateOneOwner(d, rng)
		cur = d.Underlying()
		removed, added = DiffUnd(old, cur, -1)
	}
	wts := NewWeights(n, 3, 8)
	var wr, wa []WEdge
	for _, e := range removed {
		wr = append(wr, WEdge{A: e[0], B: e[1], W: wts.Of(int(e[0]), int(e[1]))})
	}
	for _, e := range added {
		wa = append(wa, WEdge{A: e[0], B: e[1], W: wts.Of(int(e[0]), int(e[1]))})
	}
	c, wc := NewCSR(cur), NewWCSRExcluding(cur, wts, -1)
	base, wbase := NewCSR(old).DistanceRows(), wRows(NewWCSRExcluding(old, wts, -1))
	full := wRows(wc)
	var y int32
	var damaged []int32
	for v := int32(0); v < int32(n); v++ {
		if dd := wc.DeletionDamage(full, v, nil); len(dd) > len(damaged) {
			y, damaged = v, dd
		}
	}
	cfull := c.DistanceRows()
	var cy int32
	var cdamaged []int32
	for v := int32(0); v < int32(n); v++ {
		if dd := c.DeletionDamage(cfull, v, nil); len(dd) > len(cdamaged) {
			cy, cdamaged = v, dd
		}
	}
	dst := make([][]int32, max(len(damaged), len(cdamaged)))
	for i := range dst {
		dst[i] = make([]int32, n)
	}
	rows := make([]int32, n*n)
	var ds DeltaScratch
	var st RepairStats
	for _, run := range []struct {
		what   string
		repair bool // reports RepairStats
		fn     func()
	}{
		{"RepairRows", true, func() { copy(rows, base); st = c.RepairRows(rows, removed, added, &ds) }},
		{"RepairRowsWeighted", true, func() { copy(rows, wbase); st = wc.RepairRowsWeighted(rows, wr, wa, &ds) }},
		{"RowsWithout", false, func() { c.RowsWithout(cfull, cdamaged, dst, cy, &ds) }},
		{"WCSR.RowsWithout", false, func() { wc.RowsWithout(full, damaged, dst, y, &ds) }},
	} {
		run.fn() // warm the scratch
		if a := testing.AllocsPerRun(10, run.fn); a != 0 {
			t.Errorf("%s: %.1f allocations per warm call, want 0", run.what, a)
		}
		if run.repair && st.RowsRefilled == 0 {
			t.Fatalf("%s repaired no damaged row (stats %+v): the check would be vacuous", run.what, st)
		}
	}
	if len(damaged) == 0 || len(cdamaged) == 0 {
		t.Fatal("no damaged deletion rows: the RowsWithout checks would be vacuous")
	}
}
