package graph

import (
	"math/rand"
	"testing"
)

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
		wgot, wwant := wRows(&wc), wRows(NewWCSRExcluding(d.Underlying(), wts, -1))
		for i := range wwant {
			if wgot[i] != wwant[i] {
				t.Fatalf("trial %d weighted cell %d: packed %d, reference %d", trial, i, wgot[i], wwant[i])
			}
		}
	}
}

// checkDeletion deletes y from d's whole-graph distance matrix the way
// the cache pool does — DeletionDamage over the full matrix, RowsWithout
// for the damaged rows, the full matrix's rows for the rest — and
// requires every row s != y to equal a per-source reference over G−y
// outside column y, and ComponentsWithout to match ComponentsExcluding:
// the scalar BFSRow in the unweighted tier, the array-scan Dijkstra in
// the weighted one (wts != nil); neither shares code with the repair
// kernels or the batched fill. It also requires the damaged set to be
// exact: a flagged row differs from the full matrix outside column y.
func checkDeletion(t *testing.T, d *Digraph, wts *Weights, y int) {
	t.Helper()
	n := d.N()
	a := d.Underlying()
	var full, want []int32
	var damaged []int32
	dst := func() [][]int32 {
		rows := make([][]int32, len(damaged))
		for i := range rows {
			rows[i] = make([]int32, n)
			for w := range rows[i] {
				rows[i][w] = -7 // stale content must not leak into the result
			}
		}
		return rows
	}
	var ds DeltaScratch
	var priv [][]int32
	label := make([]int, n)
	var comps int
	if wts == nil {
		var c CSR
		c.ResetUnderlying(d)
		full = c.DistanceRows()
		ex := NewCSRExcluding(a, y)
		want = make([]int32, n*n)
		queue := make([]int32, 0, n)
		for s := 0; s < n; s++ {
			ex.BFSRow(int32(s), want[s*n:(s+1)*n], queue)
		}
		damaged = c.DeletionDamage(full, int32(y), nil)
		priv = dst()
		c.RowsWithout(full, damaged, priv, int32(y), &ds)
		comps, _ = c.ComponentsWithout(y, label, nil)
	} else {
		var wc WCSR
		wc.ResetUnderlying(d, wts)
		full = wRows(&wc)
		ex := NewWCSRExcluding(a, wts, y)
		want = make([]int32, n*n)
		for s := 0; s < n; s++ {
			ex.dijkstraRow(int32(s), want[s*n:(s+1)*n])
		}
		damaged = wc.DeletionDamage(full, int32(y), nil)
		priv = dst()
		wc.RowsWithout(full, damaged, priv, int32(y), &ds)
		comps, _ = wc.ComponentsWithout(y, label, nil)
	}
	k := 0
	for s := 0; s < n; s++ {
		if s == y {
			continue
		}
		row := full[s*n : (s+1)*n]
		flagged := k < len(damaged) && int(damaged[k]) == s
		if flagged {
			row = priv[k]
			k++
		}
		differs := false
		for w := 0; w < n; w++ {
			if w == y {
				if flagged && row[w] != InfDist {
					t.Fatalf("n=%d y=%d row %d: refilled row reaches the deleted vertex (%d)", n, y, s, row[w])
				}
				continue
			}
			if row[w] != want[s*n+w] {
				t.Fatalf("n=%d y=%d weighted=%v cell (%d,%d): got %d, reference %d (flagged %v)",
					n, y, wts != nil, s, w, row[w], want[s*n+w], flagged)
			}
			differs = differs || full[s*n+w] != want[s*n+w]
		}
		if flagged && !differs {
			t.Fatalf("n=%d y=%d weighted=%v: row %d flagged but undamaged", n, y, wts != nil, s)
		}
	}
	wantLabel, wantComps := ComponentsExcluding(a, y)
	if comps != wantComps {
		t.Fatalf("n=%d y=%d: %d components, want %d", n, y, comps, wantComps)
	}
	for v := range label {
		if label[v] != wantLabel[v] {
			t.Fatalf("n=%d y=%d vertex %d: label %d, want %d", n, y, v, label[v], wantLabel[v])
		}
	}
}

// Deletion rows must equal a per-source reference over G−y on random
// graphs — sparse ones whose G−y is disconnected, braces, vertices
// reachable through in-arcs only, and a path cut in the middle — in
// both tiers.
func TestDeletionRowsMatchFill(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(40)
		d := randomDigraphFor(n, 1+rng.Intn(3), rng)
		y := rng.Intn(n)
		switch trial % 3 {
		case 1: // a brace at y
			if w := d.Out(y); len(w) > 0 {
				d.AddArc(w[0], y)
			}
		case 2: // y owns nothing: reachable through in-arcs only
			d.SetOut(y, nil)
			d.AddArc((y+1)%n, y)
		}
		checkDeletion(t, d, nil, y)
		checkDeletion(t, d, NewWeights(n, rng.Int63(), []int32{4, 16}[trial%2]), y)
	}
	d := PathGraph(9)
	for _, y := range []int{0, 4, 8} {
		checkDeletion(t, d, nil, y)
		checkDeletion(t, d, NewWeights(9, 3, 16), y)
	}
}

// FuzzDeletionRows runs checkDeletion over fuzzed graphs and deleted
// vertices (byte 1 picks y and the weights), in both tiers: RowsWithout
// fed the whole graph's rows must match a scalar BFS (unweighted) or
// Dijkstra (weighted) over G−y, with column y at InfDist and the damage
// set exact.
func FuzzDeletionRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, d := decodeGraph(data)
		if d == nil {
			return
		}
		n := d.N()
		y, maxW := 0, int32(1)
		if len(data) > 1 {
			y, maxW = int(data[1])%n, int32(data[1])%64+1
		}
		checkDeletion(t, d, nil, y)
		checkDeletion(t, d, NewWeights(n, int64(len(data)), maxW), y)
	})
}
