package graph

import (
	"math/rand"
	"testing"
)

// scalarEccReach is the reference the bitset kernels must match: over
// the distance rows of csr, the covering radius (max over covered w of
// the min distance from the anchor set) and covered-vertex count of an
// anchor set.
func scalarEccReach(rows []int32, n int, anchors []int) (ecc int32, covered int) {
	for w := 0; w < n; w++ {
		m := InfDist
		for _, v := range anchors {
			if r := rows[v*n+w]; r < m {
				m = r
			}
		}
		if m < InfDist {
			covered++
			if m > ecc {
				ecc = m
			}
		}
	}
	return ecc, covered
}

func TestLevelUnionMatchesScalarMinMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(90) // cross the 64-vertex word boundary often
		d := randomDigraphFor(n, 2, rng)
		c := NewCSR(d.Underlying())
		rows := c.DistanceRows()
		lc := NewLevelCache(n, n)
		for s := 0; s < n; s++ {
			lc.SetRow(s, rows[s*n:(s+1)*n])
		}
		lu := NewLevelUnion(n)
		var anchors []int
		for k := 0; k < 4 && k < n; k++ {
			// First probe the candidate without merging, then merge it.
			v := rng.Intn(n)
			gotEcc, gotCov := lu.AggregateWith(lc, v)
			wantEcc, wantCov := scalarEccReach(rows, n, append(append([]int(nil), anchors...), v))
			if gotEcc != wantEcc || gotCov != wantCov {
				t.Fatalf("n=%d anchors=%v +%d: AggregateWith=(%d,%d), scalar=(%d,%d)",
					n, anchors, v, gotEcc, gotCov, wantEcc, wantCov)
			}
			lu.Merge(lc, v)
			anchors = append(anchors, v)
			gotEcc, gotCov = lu.Aggregate()
			if gotEcc != wantEcc || gotCov != wantCov {
				t.Fatalf("n=%d anchors=%v: Aggregate=(%d,%d), scalar=(%d,%d)",
					n, anchors, gotEcc, gotCov, wantEcc, wantCov)
			}
		}
	}
}

func TestLevelUnionCopyIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := randomDigraphFor(20, 2, rng)
	c := NewCSR(d.Underlying())
	rows := c.DistanceRows()
	lc := NewLevelCache(20, 20)
	for s := 0; s < 20; s++ {
		lc.SetRow(s, rows[s*20:(s+1)*20])
	}
	base := NewLevelUnion(20)
	base.Merge(lc, 3)
	e0, c0 := base.Aggregate()
	cp := NewLevelUnion(20)
	cp.CopyFrom(base)
	cp.Merge(lc, 7)
	if e, c := base.Aggregate(); e != e0 || c != c0 {
		t.Fatalf("merging into a copy mutated the original: (%d,%d) -> (%d,%d)", e0, c0, e, c)
	}
}

func TestAggregateBFSMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(100)
		d := randomDigraphFor(n, 2, rng)
		a := d.Underlying()
		ecc, sums, reached := AggregateBFS(a)
		s := NewScratch(n)
		for src := 0; src < n; src++ {
			r := s.BFS(a, src)
			if ecc[src] != r.Ecc || sums[src] != r.Sum || int(reached[src]) != r.Reached {
				t.Fatalf("n=%d src=%d: batched (ecc=%d,sum=%d,reached=%d), scalar (%d,%d,%d)",
					n, src, ecc[src], sums[src], reached[src], r.Ecc, r.Sum, r.Reached)
			}
		}
	}
}
