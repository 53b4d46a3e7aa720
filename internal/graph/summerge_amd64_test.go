package graph

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// A probe that misses AVX2 would not fail any kernel test — the Go
// loops return the same results — it would only make every scan slower.
// Cross-check it against the flags the kernel reports.
func TestProbeFindsListedAVX2(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check the probe: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !hasAVX2 {
			t.Fatal("/proc/cpuinfo lists avx2 but the CPUID/XGETBV probe reports none: the scan kernels run their Go loops")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
