package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func benchInstance(n, b int) (*Game, *graph.Digraph) {
	g := UniformGame(n, b, SUM)
	d := graph.RandomOutDigraph(g.Budgets, rand.New(rand.NewSource(1)))
	return g, d
}

func BenchmarkDeviatorEval(b *testing.B) {
	g, d := benchInstance(256, 2)
	dv := NewDeviator(g, d, 0)
	s := []int{17, 91}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dv.Eval(s)
	}
}

// --- Distance-cache before/after series (ISSUE 1) ---------------------
//
// Each pair benchmarks the same operation over the BFS fallback ("BFS")
// and the distance-cache engine ("Cached") across the sweep sizes the
// perf trajectory tracks. withCacheBudget (distcache_test.go) pins
// DefaultCacheBudget for one sub-benchmark; benchmarks run sequentially,
// so mutating the package knob is safe.

var cacheBenchSizes = []int{32, 128, 512}

func BenchmarkDeviatorEvalSweep(b *testing.B) {
	for _, n := range cacheBenchSizes {
		g, d := benchInstance(n, 2)
		s := []int{n / 8, n / 2}
		b.Run(fmt.Sprintf("BFS/n=%d", n), func(b *testing.B) {
			dv := NewDeviator(g, d, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dv.Eval(s)
			}
		})
		b.Run(fmt.Sprintf("Cached/n=%d", n), func(b *testing.B) {
			dv := NewDeviator(g, d, 0)
			dv.EnsureCache(1 << 40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dv.Eval(s)
			}
		})
	}
}

func BenchmarkGreedyBestResponseSweep(b *testing.B) {
	for _, n := range append(cacheBenchSizes, 256) {
		g, d := benchInstance(n, 3)
		b.Run(fmt.Sprintf("BFS/n=%d", n), func(b *testing.B) {
			withCacheBudget(0, func() {
				for i := 0; i < b.N; i++ {
					g.GreedyBestResponse(d, i%n)
				}
			})
		})
		b.Run(fmt.Sprintf("Cached/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.GreedyBestResponse(d, i%n)
			}
		})
	}
}

func BenchmarkBestSwapSweep(b *testing.B) {
	for _, n := range cacheBenchSizes {
		g, d := benchInstance(n, 3)
		b.Run(fmt.Sprintf("BFS/n=%d", n), func(b *testing.B) {
			withCacheBudget(0, func() {
				for i := 0; i < b.N; i++ {
					g.BestSwap(d, i%n)
				}
			})
		})
		b.Run(fmt.Sprintf("Cached/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.BestSwap(d, i%n)
			}
		})
	}
}

// BenchmarkExactBestResponseSweep uses budget 2 so the space C(n-1, 2)
// stays enumerable at n = 512 (130816 candidates): "Seq" forces the
// single-threaded enumeration, "Par" the sharded worker pool.
func BenchmarkExactBestResponseSweep(b *testing.B) {
	for _, n := range cacheBenchSizes {
		g, d := benchInstance(n, 2)
		b.Run(fmt.Sprintf("BFSSeq/n=%d", n), func(b *testing.B) {
			withCacheBudget(0, func() {
				old := exactParallelMinSpace
				exactParallelMinSpace = math.MaxInt64
				defer func() { exactParallelMinSpace = old }()
				for i := 0; i < b.N; i++ {
					if _, err := g.ExactBestResponse(d, i%n, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("CachedPar/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.ExactBestResponse(d, i%n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNewDeviator(b *testing.B) {
	g, d := benchInstance(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDeviator(g, d, i%g.N())
	}
}

func BenchmarkExactBestResponseB2(b *testing.B) {
	g, d := benchInstance(64, 2) // C(63,2) = 1953 candidates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExactBestResponse(d, i%g.N(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyBestResponse(b *testing.B) {
	g, d := benchInstance(128, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GreedyBestResponse(d, i%g.N())
	}
}

// BenchmarkWeightedGreedyResponder times the unpooled weighted greedy
// response (maxW 8, budget 2): a whole weighted fill of G−u, then the
// scan. Players a pool does not hold and every equilibrium check run
// on this path, one fill per call.
func BenchmarkWeightedGreedyResponder(b *testing.B) {
	for _, n := range []int{128, 512} {
		g, d := benchInstance(n, 2)
		respond := WeightedGreedyResponder(graph.NewWeights(n, 1, 8))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				respond(g, d, i%n)
			}
		})
	}
}

func BenchmarkBestSwap(b *testing.B) {
	g, d := benchInstance(128, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BestSwap(d, i%g.N())
	}
}

func BenchmarkVerifyNashUnit(b *testing.B) {
	// Verify a star-with-satellites equilibrium at n=48, budgets 1.
	g, d := benchInstance(48, 1)
	// Drive to equilibrium first so verification does full work.
	for pass := 0; pass < 100; pass++ {
		improved := false
		for u := 0; u < g.N(); u++ {
			br, err := g.ExactBestResponse(d, u, 0)
			if err != nil {
				b.Fatal(err)
			}
			if br.Improves() {
				d.SetOut(u, br.Strategy)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.VerifyNash(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllCosts(b *testing.B) {
	g, d := benchInstance(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllCosts(d)
	}
}

func BenchmarkProfileHash(b *testing.B) {
	_, d := benchInstance(256, 2)
	p := ProfileOf(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Hash()
	}
}
