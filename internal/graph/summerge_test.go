package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// scalarSumMerge is SumMerge's test oracle: the per-entry loop of the
// SUM pass, with the reachability test as a branch.
func scalarSumMerge(vec, row []int32) (sum int64, reached int) {
	for w, m := range vec {
		if row != nil {
			if r := row[w]; r < m {
				m = r
			}
		}
		if m < InfDist {
			sum += int64(m) + 1
			reached++
		}
	}
	return sum, reached
}

// scalarMaxMerge is MaxMerge's test oracle: the per-entry loop of the
// MAX pass.
func scalarMaxMerge(vec, row []int32) (far int32, reached int) {
	for w, m := range vec {
		if row != nil {
			if r := row[w]; r < m {
				m = r
			}
		}
		if m < InfDist {
			if m > far {
				far = m
			}
			reached++
		}
	}
	return far, reached
}

// randVec draws a distance vector with a mixture of small distances and
// InfDist sentinels (the shapes real rows have).
func randVec(n int, rng *rand.Rand) []int32 {
	v := make([]int32, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = InfDist
		default:
			v[i] = int32(rng.Intn(n + 2))
		}
	}
	return v
}

// kernelVec draws n entries below hi mixed with InfDist sentinels and
// the largest finite entry hi-1, as the tail of a buffer starting off
// entries in, so the kernels also see vectors that do not start on an
// 8-entry boundary.
func kernelVec(n, off int, hi int32, rng *rand.Rand) []int32 {
	buf := make([]int32, off+n)
	for i := range buf {
		switch rng.Intn(4) {
		case 0:
			buf[i] = InfDist
		case 1:
			buf[i] = hi - 1
		default:
			buf[i] = rng.Int31n(hi)
		}
	}
	return buf[off:]
}

// kernelCases calls check on vector pairs of every length from 0 to 600,
// at sub-slice offsets 0–7, with entries either small (below n+2) or
// anywhere up to InfDist-1, each with a row and with a nil row; plus a
// vector saturated at InfDist-1, whose lane sums need 64 bits.
func kernelCases(check func(vec, row []int32)) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 600; n++ {
		for _, hi := range []int32{int32(n) + 2, InfDist} {
			for trial := 0; trial < 3; trial++ {
				vec := kernelVec(n, rng.Intn(8), hi, rng)
				row := kernelVec(n, rng.Intn(8), hi, rng)
				check(vec, row)
				check(vec, nil)
			}
		}
		full := make([]int32, n)
		for i := range full {
			full[i] = InfDist - 1
		}
		check(full, nil)
		check(full, full)
	}
}

// orVec is row, or vec when row is nil: the Go loops take the row-less
// pass as vec merged with itself, as the dispatchers pass it.
func orVec(row, vec []int32) []int32 {
	if row == nil {
		return vec
	}
	return row
}

func TestSumMergeMatchesScalar(t *testing.T) {
	kernelCases(func(vec, row []int32) {
		wantS, wantR := scalarSumMerge(vec, row)
		if s, r := SumMerge(vec, row); s != wantS || r != wantR {
			t.Fatalf("n=%d nil-row=%v: SumMerge (%d,%d), oracle (%d,%d)", len(vec), row == nil, s, r, wantS, wantR)
		}
		if s, r := sumMergeGo(vec, orVec(row, vec)); s != wantS || r != wantR {
			t.Fatalf("n=%d nil-row=%v: Go loop (%d,%d), oracle (%d,%d)", len(vec), row == nil, s, r, wantS, wantR)
		}
	})
}

func TestMaxMergeMatchesScalar(t *testing.T) {
	kernelCases(func(vec, row []int32) {
		wantF, wantR := scalarMaxMerge(vec, row)
		if f, r := MaxMerge(vec, row); f != wantF || r != wantR {
			t.Fatalf("n=%d nil-row=%v: MaxMerge (%d,%d), oracle (%d,%d)", len(vec), row == nil, f, r, wantF, wantR)
		}
		if f, r := maxMergeGo(vec, orVec(row, vec)); f != wantF || r != wantR {
			t.Fatalf("n=%d nil-row=%v: Go loop (%d,%d), oracle (%d,%d)", len(vec), row == nil, f, r, wantF, wantR)
		}
	})
}

// kernelVecs decodes fuzz bytes into a vector pair for the scan kernels.
// Byte 0 picks the sub-slice offsets (bits 0–2 for vec, 3–5 for row);
// every further 8 bytes give one entry of each, as two little-endian
// words mapped by kernelEntry.
func kernelVecs(data []byte) (vec, row []int32) {
	if len(data) == 0 {
		return nil, nil
	}
	offV, offR := int(data[0]&7), int(data[0]>>3&7)
	data = data[1:]
	n := len(data) / 8
	vb, rb := make([]int32, offV+n), make([]int32, offR+n)
	for i := 0; i < n; i++ {
		vb[offV+i] = kernelEntry(binary.LittleEndian.Uint32(data[8*i:]))
		rb[offR+i] = kernelEntry(binary.LittleEndian.Uint32(data[8*i+4:]))
	}
	return vb[offV:], rb[offR:]
}

// kernelEntry maps a fuzz word into the kernels' domain [0, InfDist]:
// bit 31 makes it InfDist, bit 30 a small distance (its low byte), and
// otherwise its low 30 bits are any finite distance up to InfDist-1.
func kernelEntry(x uint32) int32 {
	switch {
	case x>>31 != 0:
		return InfDist
	case x>>30 != 0:
		return int32(x & 0xff)
	default:
		return int32(x & uint32(InfDist-1))
	}
}

// kernelSeeds are an empty input, a short mixed pair, and 600 entries
// saturated at InfDist-1 on odd offsets.
func kernelSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x09, 1, 0, 0, 0x40, 2, 0, 0, 0x40, 0, 0, 0, 0x80, 7, 0, 0, 0x40, 0xff, 0xff, 0xff, 0x3f, 3, 0, 0, 0})
	f.Add(append([]byte{0x0b}, bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x3f}, 1200)...))
}

// FuzzSumMerge compares the dispatching kernel, its Go loop and the
// test oracle on fuzzed vector pairs, with a row and without.
func FuzzSumMerge(f *testing.F) {
	kernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vec, row := kernelVecs(data)
		for _, row := range [][]int32{row, nil} {
			wantS, wantR := scalarSumMerge(vec, row)
			gotS, gotR := SumMerge(vec, row)
			goS, goR := sumMergeGo(vec, orVec(row, vec))
			if gotS != wantS || gotR != wantR || goS != wantS || goR != wantR {
				t.Fatalf("n=%d nil-row=%v: SumMerge (%d,%d), Go loop (%d,%d), oracle (%d,%d)",
					len(vec), row == nil, gotS, gotR, goS, goR, wantS, wantR)
			}
		}
	})
}

// FuzzMaxMerge is FuzzSumMerge for the MAX pass.
func FuzzMaxMerge(f *testing.F) {
	kernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vec, row := kernelVecs(data)
		for _, row := range [][]int32{row, nil} {
			wantF, wantR := scalarMaxMerge(vec, row)
			gotF, gotR := MaxMerge(vec, row)
			goF, goR := maxMergeGo(vec, orVec(row, vec))
			if gotF != wantF || gotR != wantR || goF != wantF || goR != wantR {
				t.Fatalf("n=%d nil-row=%v: MaxMerge (%d,%d), Go loop (%d,%d), oracle (%d,%d)",
					len(vec), row == nil, gotF, gotR, goF, goR, wantF, wantR)
			}
		}
	})
}

// contribTotal is the "total contribution" the bounded kernel reasons
// in: m+1 per reachable entry, cinf per unreachable one.
func contribTotal(vec, row []int32, cinf int64) int64 {
	var total int64
	for w, m := range vec {
		if row != nil {
			if r := row[w]; r < m {
				m = r
			}
		}
		if m < InfDist {
			total += int64(m) + 1
		} else {
			total += cinf
		}
	}
	return total
}

// TestSumMergeBounded pins the pruning contract on random inputs with a
// valid random floor: when the scan prunes, the true total strictly
// exceeds the budget; when it does not, sum and reached equal SumMerge's.
func TestSumMergeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 64, 65, 129, 400} {
		cinf := int64(n) * int64(n)
		for trial := 0; trial < 40; trial++ {
			vec := randVec(n, rng)
			row := randVec(n, rng)
			// A sound floor: entrywise at most the merged value.
			suffix := make([]int64, n+1)
			for w := n - 1; w >= 0; w-- {
				m := vec[w]
				if r := row[w]; r < m {
					m = r
				}
				if rng.Intn(2) == 0 && m > 0 && m < InfDist {
					m-- // floors may be slack
				}
				c := cinf
				if m < InfDist {
					c = int64(m) + 1
				}
				suffix[w] = suffix[w+1] + c
			}
			total := contribTotal(vec, row, cinf)
			for _, budget := range []int64{0, total - 1, total, total + 1, 1 << 40} {
				sum, reached, pruned := SumMergeBounded(vec, row, suffix, cinf, budget)
				if pruned {
					if total <= budget {
						t.Fatalf("n=%d: pruned although total %d <= budget %d", n, total, budget)
					}
					continue
				}
				wantS, wantR := SumMerge(vec, row)
				if sum != wantS || reached != wantR {
					t.Fatalf("n=%d: bounded (%d,%d) != merge (%d,%d)", n, sum, reached, wantS, wantR)
				}
			}
		}
	}
}

func TestWeightedSumMergeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 4, 7, 65, 130} {
		cinf := int64(n) * int64(n)
		for trial := 0; trial < 20; trial++ {
			vec := randVec(n, rng)
			row := randVec(n, rng)
			weight := make([]int64, n)
			for i := range weight {
				weight[i] = int64(rng.Intn(4)) // folded zeros included
			}
			var want int64
			for w, m := range vec {
				if r := row[w]; r < m {
					m = r
				}
				if m < InfDist {
					want += weight[w] * int64(m+1)
				} else {
					want += weight[w] * cinf
				}
			}
			if got := WeightedSumMerge(vec, row, weight, cinf); got != want {
				t.Fatalf("n=%d: got %d, want %d", n, got, want)
			}
			var wantNil int64
			for w, m := range vec {
				if m < InfDist {
					wantNil += weight[w] * int64(m+1)
				} else {
					wantNil += weight[w] * cinf
				}
			}
			if got := WeightedSumMerge(vec, nil, weight, cinf); got != wantNil {
				t.Fatalf("n=%d nil-row: got %d, want %d", n, got, wantNil)
			}
		}
	}
}

func TestMinInto(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 3, 4, 9, 64, 201} {
		vec := randVec(n, rng)
		row := randVec(n, rng)
		want := make([]int32, n)
		for i := range want {
			want[i] = vec[i]
			if row[i] < want[i] {
				want[i] = row[i]
			}
		}
		MinInto(vec, row)
		for i := range want {
			if vec[i] != want[i] {
				t.Fatalf("n=%d entry %d: got %d, want %d", n, i, vec[i], want[i])
			}
		}
	}
}

// BenchmarkScanKernels times each scan kernel's dispatching entry point
// against its Go loop at the lengths the engine scans: a tiny game, the
// serve sessions' n=96 and the converge families' n=512.
func BenchmarkScanKernels(b *testing.B) {
	kernels := []struct {
		name string
		fn   func(vec, row []int32) int64
	}{
		{"SumMerge", func(vec, row []int32) int64 { s, _ := SumMerge(vec, row); return s }},
		{"sumMergeGo", func(vec, row []int32) int64 { s, _ := sumMergeGo(vec, row); return s }},
		{"MaxMerge", func(vec, row []int32) int64 { f, _ := MaxMerge(vec, row); return int64(f) }},
		{"maxMergeGo", func(vec, row []int32) int64 { f, _ := maxMergeGo(vec, row); return int64(f) }},
	}
	for _, n := range []int{12, 96, 512} {
		rng := rand.New(rand.NewSource(5))
		vec, row := randVec(n, rng), randVec(n, rng)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for b.Loop() {
					kernelSink = k.fn(vec, row)
				}
			})
		}
	}
}

// kernelSink keeps the benchmarked calls live.
var kernelSink int64
