package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadgenSmoke is the acceptance gate behind `bbncg loadgen -check`:
// a fixed-seed mixed workload over 8 concurrent sessions against a real
// serve subprocess must finish with zero failed requests, zero resyncs
// or delta-repairs on settled sessions, and a streamed twin trace that
// is byte-identical to the plain response.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke")
	}
	dir := t.TempDir()
	p := startServe(t, dir)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(exe, "loadgen",
		"-addr", strings.TrimPrefix(p.base, "http://"),
		"-sessions", "8", "-n", "12", "-ops", "30", "-seed", "7",
		"-check", "-json", jsonPath)
	cmd.Env = append(os.Environ(), "BBNCG_REEXEC=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen -check failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "all gates passed") {
		t.Fatalf("missing gate confirmation:\n%s", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report: %v\n%s", err, raw)
	}
	if rep.Sessions != 8 || rep.Seed != 7 {
		t.Fatalf("report params: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed requests", rep.Failed)
	}
	if h := rep.Hammer; h.Resyncs != 0 || h.DeltaRepairs != 0 || h.Fills != 0 || h.RowsRefilled != 0 {
		t.Fatalf("settled sessions left the warm path: %+v", rep.Hammer)
	}
	if rep.Hammer.MemoHits == 0 {
		t.Fatal("hammer phase never hit the round memo")
	}
	if rep.StreamByteIdentical == nil || !*rep.StreamByteIdentical {
		t.Fatalf("stream byte-identity: %+v", rep.StreamByteIdentical)
	}
	if rep.Requests == 0 || rep.OpsPerSec <= 0 {
		t.Fatalf("throughput: %+v", rep)
	}
	// The histogram partitions every sample.
	var histTotal int
	for _, b := range rep.Histogram {
		histTotal += b.Count
	}
	if histTotal != rep.Requests {
		t.Fatalf("histogram holds %d samples, report counts %d", histTotal, rep.Requests)
	}
	// Every class the mix can emit should have shown up with 8x30 ops.
	for _, class := range []string{lcCreate, lcBestResponse, lcWelfare, lcEquilibrium, lcDynamics, lcStream, lcBatch} {
		if rep.Classes[class].Count == 0 {
			t.Fatalf("class %s never ran: %+v", class, rep.Classes)
		}
	}

	// The loadgen cleans up after itself: no sessions left behind.
	status, body := p.api(t, "GET", "/v1/sessions", nil)
	if status != 200 || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("sessions left behind: %d %s", status, body)
	}
}
