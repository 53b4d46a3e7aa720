package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(n int) *Digraph {
	rng := rand.New(rand.NewSource(1))
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 2
	}
	return RandomOutDigraph(budgets, rng)
}

func BenchmarkBFS(b *testing.B) {
	a := benchGraph(1024).Underlying()
	s := NewScratch(len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BFS(a, i%len(a))
	}
}

func BenchmarkDeviationBFS(b *testing.B) {
	g := benchGraph(1024)
	base := g.UnderlyingWithout(0)
	in := g.In(0)
	s := NewScratch(g.N())
	strategy := []int{100, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DeviationBFS(base, 0, strategy, in)
	}
}

// BenchmarkDistanceRows times one whole distance-matrix fill per
// iteration on the GOMAXPROCS worker pool: DistanceRowsInto over the
// unweighted CSR (the batched BFS, 64 consecutive sources per pass) and
// over the weighted CSR with weights in [1, 8] (one heap settle per
// source).
func BenchmarkDistanceRows(b *testing.B) {
	for _, row := range []struct {
		n        int
		weighted bool
	}{{96, false}, {512, false}, {1024, false}, {128, true}, {512, true}} {
		name := fmt.Sprintf("n=%d", row.n)
		if row.weighted {
			name += "/weighted"
		}
		b.Run(name, func(b *testing.B) {
			a := benchGraph(row.n).Underlying()
			fill := NewCSR(a).DistanceRowsInto
			if row.weighted {
				fill = NewWCSRExcluding(a, NewWeights(row.n, 1, 8), -1).DistanceRowsInto
			}
			dst := make([]int32, row.n*row.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill(dst)
			}
		})
	}
}

// BenchmarkRowsWithout times one warm RowsWithout per iteration: the
// private rows a cache pool keeps for the vertex whose deletion damages
// the most rows of the whole graph's matrix, each repaired from its row
// of that matrix. n=96 is serve's session size and n=512 converge's; the
// graph is a random budget-2 profile, the start of a converge instance,
// unweighted and with weights in [1, 8].
func BenchmarkRowsWithout(b *testing.B) {
	for _, row := range []struct {
		n        int
		weighted bool
	}{{96, false}, {512, false}, {96, true}, {512, true}} {
		name := fmt.Sprintf("n=%d", row.n)
		if row.weighted {
			name += "/weighted"
		}
		b.Run(name, func(b *testing.B) {
			a := benchGraph(row.n).Underlying()
			c := NewCSR(a)
			rows, damage, without := c.DistanceRows(), c.DeletionDamage, c.RowsWithout
			if row.weighted {
				wc := NewWCSRExcluding(a, NewWeights(row.n, 1, 8), -1)
				rows, damage, without = wRows(wc), wc.DeletionDamage, wc.RowsWithout
			}
			var y int32
			var srcs []int32
			for v := int32(0); v < int32(row.n); v++ {
				if dd := damage(rows, v, nil); len(dd) > len(srcs) {
					y, srcs = v, dd
				}
			}
			dst := make([][]int32, len(srcs))
			for i := range dst {
				dst[i] = make([]int32, row.n)
			}
			var ds DeltaScratch
			without(rows, srcs, dst, y, &ds) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				without(rows, srcs, dst, y, &ds)
			}
			b.ReportMetric(float64(len(srcs)), "rows/op")
		})
	}
}

func BenchmarkUnderlying(b *testing.B) {
	g := benchGraph(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Underlying()
	}
}

func BenchmarkDiameter(b *testing.B) {
	a := benchGraph(512).Underlying()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diameter(a)
	}
}

func BenchmarkAllPairs(b *testing.B) {
	a := benchGraph(256).Underlying()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairs(a)
	}
}

func BenchmarkComponents(b *testing.B) {
	a := benchGraph(1024).Underlying()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Components(a)
	}
}

func BenchmarkVertexConnectivity(b *testing.B) {
	// 3-cube-of-cliques style: cycle with chords, n=64.
	d := CycleGraph(64)
	for v := 0; v < 64; v += 4 {
		d.AddArc(v, (v+32)%64)
	}
	a := d.Underlying()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexConnectivity(a)
	}
}

func BenchmarkBridges(b *testing.B) {
	a := benchGraph(1024).Underlying()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bridges(a)
	}
}
