package graph

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the CSR substrate of the deviation engine:
// construction invariants of the flat adjacency, and agreement between
// the word-parallel batched BFS (DistanceRowsInto) and the scalar
// per-source BFS (BFSRow). CI runs each target as a short -fuzztime
// smoke on top of the seeded corpus below.

// decodeGraph turns fuzz bytes into an undirected adjacency: byte 0
// picks n in [1, 130], so the fills' 64-source batches reach a third,
// partial one; the rest are consumed pairwise as arcs u->v (mod n,
// self-loops skipped). Going through Digraph.Underlying keeps the
// decoded graphs inside the invariant every real caller provides
// (sorted, deduplicated neighbour lists).
func decodeGraph(data []byte) (Und, *Digraph) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0])%130 + 1
	d := NewDigraph(n)
	rest := data[1:]
	for i := 0; i+1 < len(rest); i += 2 {
		u := int(rest[i]) % n
		v := int(rest[i+1]) % n
		if u != v {
			d.AddArc(u, v)
		}
	}
	return d.Underlying(), d
}

// fuzzSeeds are byte encodings of the shapes that historically break
// BFS code: empty, singleton, a path, a dense blob, and a 130-vertex
// path (three word-parallel batches, the last of two sources).
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 3, 4, 5, 6})
	big := []byte{129}
	for i := byte(0); i < 129; i++ {
		big = append(big, i, i+1)
	}
	f.Add(big)
	f.Add(bytes.Repeat([]byte{13, 2, 9}, 20))
}

func FuzzCSR(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, _ := decodeGraph(data)
		if a == nil {
			return
		}
		n := a.N()
		c := NewCSR(a)
		if c.N() != n {
			t.Fatalf("CSR.N = %d, want %d", c.N(), n)
		}
		if len(c.Indptr) != n+1 || c.Indptr[0] != 0 || int(c.Indptr[n]) != len(c.Nbrs) {
			t.Fatalf("Indptr malformed: %v with %d nbrs", c.Indptr, len(c.Nbrs))
		}
		for v := 0; v < n; v++ {
			if c.Indptr[v] > c.Indptr[v+1] {
				t.Fatalf("Indptr not monotone at %d: %v", v, c.Indptr)
			}
			row := c.Nbrs[c.Indptr[v]:c.Indptr[v+1]]
			if len(row) != len(a[v]) {
				t.Fatalf("vertex %d: CSR degree %d, Und degree %d", v, len(row), len(a[v]))
			}
			for i, w := range row {
				if int(w) != a[v][i] {
					t.Fatalf("vertex %d: CSR nbrs %v, Und nbrs %v", v, row, a[v])
				}
			}
		}
		// Exclusion: every u-free row of NewCSRExcluding matches the
		// adjacency with u dropped, and u's own row is empty.
		u := 0
		if len(data) > 1 {
			u = int(data[1]) % n
		}
		ce := NewCSRExcluding(a, u)
		if got := ce.Nbrs[ce.Indptr[u]:ce.Indptr[u+1]]; len(got) != 0 {
			t.Fatalf("excluded vertex %d still has neighbours %v", u, got)
		}
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			row := ce.Nbrs[ce.Indptr[v]:ce.Indptr[v+1]]
			want := make([]int32, 0, len(a[v]))
			for _, w := range a[v] {
				if w != u {
					want = append(want, int32(w))
				}
			}
			if len(row) != len(want) {
				t.Fatalf("excl %d, vertex %d: got %v, want %v", u, v, row, want)
			}
			for i := range row {
				if row[i] != want[i] {
					t.Fatalf("excl %d, vertex %d: got %v, want %v", u, v, row, want)
				}
			}
		}
	})
}

func FuzzBatchedBFS(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, _ := decodeGraph(data)
		if a == nil {
			return
		}
		n := a.N()
		c := NewCSR(a)
		dist := c.DistanceRows()
		row := make([]int32, n)
		queue := make([]int32, 0, n)
		for v := 0; v < n; v++ {
			// Agreement with the scalar BFS, source by source.
			c.BFSRow(int32(v), row, queue)
			for w := 0; w < n; w++ {
				if dist[v*n+w] != row[w] {
					t.Fatalf("dist[%d][%d]: batched %d, scalar %d", v, w, dist[v*n+w], row[w])
				}
			}
			for w := 0; w < n; w++ {
				dvw := dist[v*n+w]
				// Symmetry on undirected inputs.
				if dwv := dist[w*n+v]; dvw != dwv {
					t.Fatalf("asymmetry: dist[%d][%d]=%d, dist[%d][%d]=%d", v, w, dvw, w, v, dwv)
				}
				// Range: 0 on the diagonal, else positive and < n or InfDist.
				switch {
				case v == w:
					if dvw != 0 {
						t.Fatalf("dist[%d][%d] = %d on diagonal", v, w, dvw)
					}
				case dvw == InfDist:
				case dvw <= 0 || dvw >= int32(n):
					t.Fatalf("dist[%d][%d] = %d out of range", v, w, dvw)
				}
				// Adjacent vertices are at distance exactly 1.
				if v != w && a.HasEdge(v, w) && dvw != 1 {
					t.Fatalf("adjacent %d,%d at distance %d", v, w, dvw)
				}
			}
		}
	})
}

// FuzzDeviationCSR drives the G-u exclusion path the deviation engine
// relies on: distances in NewCSRExcluding(a, u) must match a scalar
// BFS on the explicitly rebuilt G-u adjacency.
func FuzzDeviationCSR(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, _ := decodeGraph(data)
		if a == nil || a.N() < 2 {
			return
		}
		n := a.N()
		u := int(data[0]) % n
		ce := NewCSRExcluding(a, u)
		// Rebuild G-u the slow way.
		gu := make(Und, n)
		for v, nb := range a {
			if v == u {
				continue
			}
			for _, w := range nb {
				if w != u {
					gu[v] = append(gu[v], w)
				}
			}
		}
		cref := NewCSR(gu)
		got := ce.DistanceRows()
		want := cref.DistanceRows()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("excl %d: dist[%d][%d] batched-on-excluded %d, reference %d",
					u, i/n, i%n, got[i], want[i])
			}
		}
	})
}

// rewireMovers rewires up to three movers of d, as a few moves between
// two syncs of the pool's shared matrix: mover k is movers[k] mod n and
// takes as its new out-set the vertices named by the tail bytes at
// positions k, k+len(movers), …. A move that would put the netted delta
// past RepairCap (fits reports false) is cut to its longest prefix that
// fits, or undone, so the composite delta, removals and additions
// interacting, always reaches the per-row repair. It returns the first
// mover (0 without movers).
func rewireMovers(d *Digraph, movers, tail []byte, fits func() bool) int {
	n := d.N()
	for k, mb := range movers {
		m := int(mb) % n
		have := make([]bool, n)
		var out []int
		for i := k; i < len(tail); i += len(movers) {
			if v := int(tail[i]) % n; v != m && !have[v] {
				have[v] = true
				out = append(out, v)
			}
		}
		prev := append([]int(nil), d.Out(m)...)
		for l := len(out); ; l-- {
			if l < 0 {
				d.SetOut(m, prev)
				break
			}
			d.SetOut(m, out[:l])
			if fits() {
				break
			}
		}
	}
	if len(movers) == 0 {
		return 0
	}
	return int(movers[0]) % n
}

// FuzzDeltaBFS drives the incremental repair path: decode a graph,
// rewire up to three fuzz-chosen movers (bytes 1–3 pick them, the rest
// name their new out-sets), and require the repaired distance matrix
// (RepairRows over the DiffUnd edge delta) to equal a fresh refill —
// both for the plain CSR and for a CSR with an excluded vertex.
func FuzzDeltaBFS(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, d := decodeGraph(data)
		if d == nil {
			return
		}
		n := d.N()
		old := d.Underlying()
		movers := data[1:min(4, len(data))]
		m := rewireMovers(d, movers, data[1+len(movers):], func() bool {
			removed, added := DiffUnd(old, d.Underlying(), -1)
			return len(removed)+len(added) <= RepairCap(n)
		})
		cur := d.Underlying()
		for _, skip := range []int{-1, m} {
			var oldCSR, newCSR *CSR
			if skip >= 0 {
				oldCSR, newCSR = NewCSRExcluding(old, skip), NewCSRExcluding(cur, skip)
			} else {
				oldCSR, newCSR = NewCSR(old), NewCSR(cur)
			}
			rows := oldCSR.DistanceRows()
			removed, added := DiffUnd(old, cur, skip)
			if st := repairOrRefill(t, newCSR, rows, removed, added); st.FullRefill {
				t.Fatalf("skip=%d: delta of %d edges past RepairCap %d", skip, len(removed)+len(added), RepairCap(n))
			}
			want := newCSR.DistanceRows()
			for i := range want {
				if rows[i] != want[i] {
					t.Fatalf("skip=%d cell (%d,%d): repaired %d, refilled %d (removed=%v added=%v)",
						skip, i/n, i%n, rows[i], want[i], removed, added)
				}
			}
		}
	})
}
