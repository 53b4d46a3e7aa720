package analysis

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/core"
)

func BenchmarkAuditUnitBudget(b *testing.B) {
	d, _, err := construct.UnitSatellite(64, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AuditUnitBudget(d)
	}
}

func BenchmarkAuditTreeSumPath(b *testing.B) {
	d, _, err := construct.PerfectBinaryTree(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AuditTreeSumPath(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxTreeBallRadius(b *testing.B) {
	d, _, err := construct.PerfectBinaryTree(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxTreeBallRadius(d)
	}
}

func BenchmarkFoldExperiment(b *testing.B) {
	tree, _, err := construct.PerfectBinaryTree(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg := core.NewVertexWeighted(tree.Clone())
		if _, err := FoldExperiment(wg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitGrowth(b *testing.B) {
	ns := []float64{8, 16, 32, 64, 128, 256, 512, 1024}
	ys := []float64{3, 4, 4, 5, 5, 6, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGrowth(ns, ys); err != nil {
			b.Fatal(err)
		}
	}
}
