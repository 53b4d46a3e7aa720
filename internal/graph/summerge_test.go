package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// scalarSumMerge is SumMerge's test oracle: the per-entry loop of the
// SUM pass over row read at offset off, with the reachability test as a
// branch.
func scalarSumMerge(vec, row []int32, off int32) (sum int64, reached int) {
	for w, m := range vec {
		if row != nil {
			if r := row[w] + off; r < m {
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
func scalarMaxMerge(vec, row []int32, off int32) (far int32, reached int) {
	for w, m := range vec {
		if row != nil {
			if r := row[w] + off; r < m {
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
// anywhere up to InfDist-1, each with a row and with a nil row, at row
// offset 0 and at a random offset in [1, 16] (finite row entries then
// capped so that entry plus offset stays below InfDist), with a −1
// vector entry (the deviating player's own column) in every vector of
// length at least 3; plus a vector saturated at InfDist-1, whose lane
// sums need 64 bits.
func kernelCases(check func(vec, row []int32, off int32)) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 600; n++ {
		for _, hi := range []int32{int32(n) + 2, InfDist} {
			for trial := 0; trial < 3; trial++ {
				vec := kernelVec(n, rng.Intn(8), hi, rng)
				row := kernelVec(n, rng.Intn(8), hi, rng)
				if n >= 3 {
					vec[rng.Intn(n)] = -1
				}
				check(vec, row, 0)
				check(vec, nil, 0)
				off := 1 + rng.Int31n(16)
				for i, r := range row {
					if r < InfDist && r+off >= InfDist {
						row[i] = InfDist - 1 - off
					}
				}
				check(vec, row, off)
			}
		}
		full := make([]int32, n)
		for i := range full {
			full[i] = InfDist - 1
		}
		check(full, nil, 0)
		check(full, full, 0)
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
	kernelCases(func(vec, row []int32, off int32) {
		wantS, wantR := scalarSumMerge(vec, row, off)
		if s, r := SumMerge(vec, row, off); s != wantS || r != wantR {
			t.Fatalf("n=%d nil-row=%v off=%d: SumMerge (%d,%d), oracle (%d,%d)", len(vec), row == nil, off, s, r, wantS, wantR)
		}
		if row == nil {
			off = 0
		}
		if s, r := sumMergeGo(vec, orVec(row, vec), off); s != wantS || r != wantR {
			t.Fatalf("n=%d nil-row=%v off=%d: Go loop (%d,%d), oracle (%d,%d)", len(vec), row == nil, off, s, r, wantS, wantR)
		}
	})
}

func TestMaxMergeMatchesScalar(t *testing.T) {
	kernelCases(func(vec, row []int32, off int32) {
		wantF, wantR := scalarMaxMerge(vec, row, off)
		if f, r := MaxMerge(vec, row, off); f != wantF || r != wantR {
			t.Fatalf("n=%d nil-row=%v off=%d: MaxMerge (%d,%d), oracle (%d,%d)", len(vec), row == nil, off, f, r, wantF, wantR)
		}
		if row == nil {
			off = 0
		}
		if f, r := maxMergeGo(vec, orVec(row, vec), off); f != wantF || r != wantR {
			t.Fatalf("n=%d nil-row=%v off=%d: Go loop (%d,%d), oracle (%d,%d)", len(vec), row == nil, off, f, r, wantF, wantR)
		}
	})
}

// kernelVecs decodes fuzz bytes into a vector pair and a row offset for
// the scan kernels. Byte 0 picks the sub-slice offsets (bits 0–2 for
// vec, 3–5 for row) and whether the row carries an offset (bit 6: the
// low nibble of the last byte, plus one); every further 8 bytes give
// one entry of each, as two little-endian words mapped by kernelEntry —
// a vector word with bits 31 and 30 both set is the −1 column, and a
// finite row entry plus the offset is capped below InfDist.
func kernelVecs(data []byte) (vec, row []int32, off int32) {
	if len(data) == 0 {
		return nil, nil, 0
	}
	offV, offR := int(data[0]&7), int(data[0]>>3&7)
	if data[0]>>6&1 != 0 {
		off = int32(data[len(data)-1]&15) + 1
	}
	data = data[1:]
	n := len(data) / 8
	vb, rb := make([]int32, offV+n), make([]int32, offR+n)
	for i := 0; i < n; i++ {
		x := binary.LittleEndian.Uint32(data[8*i:])
		vb[offV+i] = kernelEntry(x)
		if x>>30 == 3 {
			vb[offV+i] = -1
		}
		r := kernelEntry(binary.LittleEndian.Uint32(data[8*i+4:]))
		if r < InfDist && r+off >= InfDist {
			r = InfDist - 1 - off
		}
		rb[offR+i] = r
	}
	return vb[offV:], rb[offR:], off
}

// kernelEntry maps a fuzz word into the kernels' row domain
// [0, InfDist]: bit 31 makes it InfDist, bit 30 a small distance (its
// low byte), and otherwise its low 30 bits are any finite distance up
// to InfDist-1.
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
		vec, row, off := kernelVecs(data)
		for _, row := range [][]int32{row, nil} {
			o := off
			if row == nil {
				o = 0
			}
			wantS, wantR := scalarSumMerge(vec, row, o)
			gotS, gotR := SumMerge(vec, row, off)
			goS, goR := sumMergeGo(vec, orVec(row, vec), o)
			if gotS != wantS || gotR != wantR || goS != wantS || goR != wantR {
				t.Fatalf("n=%d nil-row=%v off=%d: SumMerge (%d,%d), Go loop (%d,%d), oracle (%d,%d)",
					len(vec), row == nil, o, gotS, gotR, goS, goR, wantS, wantR)
			}
		}
	})
}

// FuzzMaxMerge is FuzzSumMerge for the MAX pass.
func FuzzMaxMerge(f *testing.F) {
	kernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vec, row, off := kernelVecs(data)
		for _, row := range [][]int32{row, nil} {
			o := off
			if row == nil {
				o = 0
			}
			wantF, wantR := scalarMaxMerge(vec, row, o)
			gotF, gotR := MaxMerge(vec, row, off)
			goF, goR := maxMergeGo(vec, orVec(row, vec), o)
			if gotF != wantF || gotR != wantR || goF != wantF || goR != wantR {
				t.Fatalf("n=%d nil-row=%v off=%d: MaxMerge (%d,%d), Go loop (%d,%d), oracle (%d,%d)",
					len(vec), row == nil, o, gotF, gotR, goF, goR, wantF, wantR)
			}
		}
	})
}

// contribTotal is the "total contribution" the bounded kernel reasons
// in: m+1 per reachable entry, cinf per unreachable one.
func contribTotal(vec, row []int32, off int32, cinf int64) int64 {
	var total int64
	for w, m := range vec {
		if row != nil {
			if r := row[w] + off; r < m {
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
			vec[rng.Intn(n)] = -1 // the deviating player's own column
			off := rng.Int31n(4)
			// A sound floor: entrywise at most the merged value.
			suffix := make([]int64, n+1)
			for w := n - 1; w >= 0; w-- {
				m := vec[w]
				if r := row[w] + off; r < m {
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
			total := contribTotal(vec, row, off, cinf)
			for _, budget := range []int64{0, total - 1, total, total + 1, 1 << 40} {
				sum, reached, pruned := SumMergeBounded(vec, row, off, suffix, cinf, budget)
				if pruned {
					if total <= budget {
						t.Fatalf("n=%d: pruned although total %d <= budget %d", n, total, budget)
					}
					continue
				}
				wantS, wantR := SumMerge(vec, row, off)
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
			off := rng.Int31n(4)
			var want int64
			for w, m := range vec {
				if r := row[w] + off; r < m {
					m = r
				}
				if m < InfDist {
					want += weight[w] * int64(m+1)
				} else {
					want += weight[w] * cinf
				}
			}
			if got := WeightedSumMerge(vec, row, off, weight, cinf); got != want {
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
			if got := WeightedSumMerge(vec, nil, off, weight, cinf); got != wantNil {
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
		off := rng.Int31n(4)
		want := make([]int32, n)
		for i := range want {
			want[i] = vec[i]
			if row[i]+off < want[i] {
				want[i] = row[i] + off
			}
		}
		MinInto(vec, row, off)
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
		{"SumMerge", func(vec, row []int32) int64 { s, _ := SumMerge(vec, row, 0); return s }},
		{"sumMergeGo", func(vec, row []int32) int64 { s, _ := sumMergeGo(vec, row, 0); return s }},
		{"MaxMerge", func(vec, row []int32) int64 { f, _ := MaxMerge(vec, row, 0); return int64(f) }},
		{"maxMergeGo", func(vec, row []int32) int64 { f, _ := maxMergeGo(vec, row, 0); return int64(f) }},
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
