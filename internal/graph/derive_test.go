package graph

import (
	"math/rand"
	"testing"
)

// deriveOffsets returns the deviation-cache offsets of player u under
// wts: w(u,v) - 1, and 0 for u itself.
func deriveOffsets(wts *Weights, u int) []int32 {
	off := make([]int32, wts.N())
	for v := range off {
		if v != u {
			off[v] = wts.Of(u, v) - 1
		}
	}
	return off
}

// checkDerive derives G−y's matrix from G−x's over d and requires it to
// equal a fresh fill bit for bit, in the unweighted tier and (wts !=
// nil) the weighted one. It reports whether the derivation ran to the
// end rather than declining on damage.
func checkDerive(t *testing.T, d *Digraph, wts *Weights, x, y int) bool {
	t.Helper()
	n := d.N()
	a := d.Underlying()
	var c CSR
	c.ResetUnderlying(d)
	if wts == nil {
		donor := NewCSRExcluding(a, x).DistanceRows()
		want := NewCSRExcluding(a, y).DistanceRows()
		rows := make([]int32, n*n)
		for i := range rows {
			rows[i] = -7 // stale content must not leak into the result
		}
		st, ok := c.DeriveRows(rows, donor, int32(x), int32(y), NewDeltaScratch(n))
		if !ok {
			return false
		}
		for i := range want {
			if rows[i] != want[i] {
				t.Fatalf("n=%d x=%d y=%d cell (%d,%d): derived %d, filled %d (stats %+v)",
					n, x, y, i/n, i%n, rows[i], want[i], st)
			}
		}
		return true
	}
	var wc WCSR
	wc.ResetUnderlying(d, wts)
	donorOff, off := deriveOffsets(wts, x), deriveOffsets(wts, y)
	donor := wRows(NewWCSRExcluding(a, wts, x), donorOff)
	want := wRows(NewWCSRExcluding(a, wts, y), off)
	rows := make([]int32, n*n)
	st, ok := wc.DeriveRowsWeighted(rows, donor, off, donorOff, int32(x), int32(y), NewWDeltaScratch(n))
	if !ok {
		return false
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("n=%d maxW=%d x=%d y=%d cell (%d,%d): derived %d, filled %d (stats %+v)",
				n, wts.MaxW(), x, y, i/n, i%n, rows[i], want[i], st)
		}
	}
	return true
}

// The full-graph CSR packed in place must give the same distances as
// the allocating Underlying + NewCSR path, and stay right when reused
// across graphs of different sizes.
func TestResetUnderlyingMatchesNewCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var c CSR
	var wc WCSR
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		d := randomDigraphFor(n, 3, rng)
		if n > 1 && rng.Intn(2) == 0 {
			u := rng.Intn(n)
			if w := d.Out(u); len(w) > 0 {
				d.AddArc(w[0], u) // a brace
			}
		}
		c.ResetUnderlying(d)
		got, want := c.DistanceRows(), NewCSR(d.Underlying()).DistanceRows()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d cell %d: packed %d, reference %d", trial, i, got[i], want[i])
			}
		}
		if deg := int(c.Indptr[n]); deg != 2*d.Underlying().EdgeCount() {
			t.Fatalf("trial %d: %d neighbour entries, want %d (braces must count once)", trial, deg, 2*d.Underlying().EdgeCount())
		}
		wts := NewWeights(n, rng.Int63(), 9)
		wc.ResetUnderlying(d, wts)
		wgot, wwant := wRows(&wc, nil), wRows(NewWCSRExcluding(d.Underlying(), wts, -1), nil)
		for i := range wwant {
			if wgot[i] != wwant[i] {
				t.Fatalf("trial %d weighted cell %d: packed %d, reference %d", trial, i, wgot[i], wwant[i])
			}
		}
	}
}

// Derivation must equal a fresh fill on random graphs — sparse ones
// whose G−y is disconnected, x adjacent to y, braces, and an x that
// owns no arcs (in-arcs only) — in both tiers, and must actually run to
// the end on most of them.
func TestDeriveRowsMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	defer func(f float64) { RepairRefillFraction = f }(RepairRefillFraction)
	for _, frac := range []float64{0.25, 1} {
		RepairRefillFraction = frac
		ran, tried := 0, 0
		for trial := 0; trial < 150; trial++ {
			n := 2 + rng.Intn(40)
			d := randomDigraphFor(n, 1+rng.Intn(3), rng)
			x, y := rng.Intn(n), rng.Intn(n-1)
			if y >= x {
				y++
			}
			switch trial % 4 {
			case 1: // x adjacent to y, as a brace half the time
				d.AddArc(x, y)
				if rng.Intn(2) == 0 {
					d.AddArc(y, x)
				}
			case 2: // x owns nothing: reachable through in-arcs only
				d.SetOut(x, nil)
				d.AddArc(y, x)
			}
			var wts *Weights
			if trial%3 != 0 {
				wts = NewWeights(n, rng.Int63(), []int32{4, 16}[trial%2])
			}
			tried++
			if checkDerive(t, d, wts, x, y) {
				ran++
			}
		}
		if frac == 1 && ran != tried {
			t.Fatalf("derivation declined %d of %d times with no damage limit", tried-ran, tried)
		}
	}
}

// Derivation on a graph where deleting y disconnects it — a path with
// y in the middle — must give InfDist across the cut without int32
// overflow, in both tiers.
func TestDeriveRowsDisconnectingY(t *testing.T) {
	defer func(f float64) { RepairRefillFraction = f }(RepairRefillFraction)
	RepairRefillFraction = 1
	d := PathGraph(9)
	for _, x := range []int{0, 3, 5, 8} {
		if !checkDerive(t, d, nil, x, 4) || !checkDerive(t, d, NewWeights(9, 3, 16), x, 4) {
			t.Fatalf("x=%d: derivation declined with no damage limit", x)
		}
	}
}

// FuzzDeriveRows drives the derive rung's kernels with fuzz-chosen
// graphs, donor x, target y and weights: the derived matrix must equal
// a fresh fill of G−y bit for bit, unweighted and weighted.
func FuzzDeriveRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, d := decodeGraph(data)
		if d == nil || d.N() < 2 || len(data) < 3 {
			return
		}
		n := d.N()
		x := int(data[1]) % n
		y := (x + 1 + int(data[2])%(n-1)) % n
		checkDerive(t, d, nil, x, y)
		checkDerive(t, d, NewWeights(n, int64(data[2]), int32(data[1])%16+1), x, y)
	})
}

// After its first call a derivation allocates nothing: the scratch
// holds every buffer, in both tiers.
func TestDeriveRowsAllocationFree(t *testing.T) {
	defer func(f float64) { RepairRefillFraction = f }(RepairRefillFraction)
	RepairRefillFraction = 1 // every row may be damaged: exercise the refill too
	rng := rand.New(rand.NewSource(63))
	d := randomDigraphFor(70, 2, rng)
	n := d.N()
	a := d.Underlying()
	var c CSR
	c.ResetUnderlying(d)
	donor, rows := NewCSRExcluding(a, 3).DistanceRows(), make([]int32, n*n)
	ds := NewDeltaScratch(n)
	if allocs := testing.AllocsPerRun(5, func() { c.DeriveRows(rows, donor, 3, 9, ds) }); allocs != 0 {
		t.Fatalf("DeriveRows allocated %.1f times per call", allocs)
	}
	wts := NewWeights(n, 5, 8)
	var wc WCSR
	wc.ResetUnderlying(d, wts)
	donorOff, off := deriveOffsets(wts, 3), deriveOffsets(wts, 9)
	wdonor := wRows(NewWCSRExcluding(a, wts, 3), donorOff)
	wds := NewWDeltaScratch(n)
	if allocs := testing.AllocsPerRun(5, func() { wc.DeriveRowsWeighted(rows, wdonor, off, donorOff, 3, 9, wds) }); allocs != 0 {
		t.Fatalf("DeriveRowsWeighted allocated %.1f times per call", allocs)
	}
}
