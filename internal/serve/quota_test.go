package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/pkg/bbncg/api"
)

// quotaServer spins a server with the given quota over a fresh manager.
func quotaServer(t *testing.T, qc QuotaConfig) (*httptest.Server, *Manager) {
	t.Helper()
	m := openManager(t, t.TempDir(), Options{})
	ts := httptest.NewServer(NewServer(m, Config{Quota: qc}))
	t.Cleanup(ts.Close)
	return ts, m
}

// get performs one request with an optional api key and returns the
// response (body decoded into an envelope when the status is an error).
func get(t *testing.T, ts *httptest.Server, method, path, key string) (*http.Response, api.ErrorEnvelope) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s -> %d with unparseable envelope: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp, env
}

func TestQuotaRateLimits(t *testing.T) {
	// RPS so low the bucket never refills mid-test; burst 2 admits
	// exactly two requests per client.
	ts, m := quotaServer(t, QuotaConfig{RPS: 0.001, Burst: 2})
	if _, err := m.Create(cycleRequest("q")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, _ := get(t, ts, "GET", "/v1/sessions/q", "alice")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d within burst: %d", i, resp.StatusCode)
		}
	}
	resp, env := get(t, ts, "GET", "/v1/sessions/q", "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: %d", resp.StatusCode)
	}
	if env.Err.Code != api.CodeRateLimited {
		t.Fatalf("over-burst code %q", env.Err.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Quotas are per client: a different key still has its burst.
	if resp, _ := get(t, ts, "GET", "/v1/sessions/q", "bob"); resp.StatusCode != 200 {
		t.Fatalf("fresh client throttled: %d", resp.StatusCode)
	}
	// Health, readiness and stats bypass quota — monitoring never
	// competes with traffic.
	for _, path := range []string{"/healthz", "/readyz", "/statsz"} {
		if resp, _ := get(t, ts, "GET", path, "alice"); resp.StatusCode != 200 {
			t.Fatalf("%s throttled: %d", path, resp.StatusCode)
		}
	}
	// The throttle shows up in the stats counter.
	var st api.StatsSnapshot
	if code := call(t, ts, "GET", "/statsz", nil, &st); code != 200 || st.Throttled == 0 {
		t.Fatalf("throttled counter: code %d snapshot %+v", code, st)
	}
}

func TestQuotaConcurrencyCap(t *testing.T) {
	ts, m := quotaServer(t, QuotaConfig{MaxInFlight: 1})
	if _, err := m.Create(cycleRequest("c")); err != nil {
		t.Fatal(err)
	}
	// Park one slow request in the only slot via the round delay
	// failpoint, then probe: same client must get 429
	// concurrency_limited, another client must pass.
	fault.Install(fault.NewSet(fault.Rule{
		Site: "serve.dynamics.round", Mode: fault.ModeDelay,
		Delay: 300 * time.Millisecond, Sched: fault.Always(),
	}))
	defer fault.Disarm()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/c/dynamics", strings.NewReader(`{"rounds":3}`))
		req.Header.Set("X-Api-Key", "alice")
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slow request occupies the slot. The wait polls the
	// quota-exempt in-flight gauge: probing as alice could itself hold
	// her only slot at the moment the slow request arrives and get that
	// request rejected instead.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var st api.StatsSnapshot
		if code := call(t, ts, "GET", "/statsz", nil, &st); code != 200 {
			t.Fatalf("statsz: %d", code)
		}
		if st.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the slow request never took the slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, env := get(t, ts, "GET", "/v1/sessions/c", "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("never hit the concurrency cap: %d", resp.StatusCode)
	}
	if env.Err.Code != api.CodeConcurrencyLimited {
		t.Fatalf("cap code %q", env.Err.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp, _ := get(t, ts, "GET", "/v1/sessions/c", "bob"); resp.StatusCode != 200 {
		t.Fatalf("other client caught in alice's cap: %d", resp.StatusCode)
	}
	wg.Wait()
	// Slot released: alice is admitted again.
	if resp, _ := get(t, ts, "GET", "/v1/sessions/c", "alice"); resp.StatusCode != 200 {
		t.Fatalf("slot not released: %d", resp.StatusCode)
	}
}
