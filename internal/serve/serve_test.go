package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/pkg/bbncg"
	"repro/pkg/bbncg/api"
)

// openManager opens a manager over dir with test-friendly defaults and
// registers its close.
func openManager(t *testing.T, dir string, opt Options) *Manager {
	t.Helper()
	m, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// cycleRequest is a 6-cycle with explicit arcs: every player has budget
// 1, so greedy best responses always exist and rewiring is easy to
// exercise.
func cycleRequest(id string) api.CreateRequest {
	arcs := make([][2]int, 6)
	for u := 0; u < 6; u++ {
		arcs[u] = [2]int{u, (u + 1) % 6}
	}
	return api.CreateRequest{ID: id, N: 6, Arcs: arcs}
}

// answers collects every player's best response plus the welfare — the
// comparison handle the replay tests diff across restarts.
func answers(t *testing.T, s *Session) ([]api.BestResponseResult, api.WelfareResult) {
	t.Helper()
	info, err := s.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	brs := make([]api.BestResponseResult, info.N)
	for u := 0; u < info.N; u++ {
		br, err := s.BestResponse(u, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		br.Memo = false // memo-vs-computed is not part of the answer
		brs[u] = br
	}
	wf, err := s.Welfare()
	if err != nil {
		t.Fatal(err)
	}
	return brs, wf
}

func TestSessionCreateRewireQuery(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	s, err := m.Create(cycleRequest("cyc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(cycleRequest("cyc")); err == nil {
		t.Fatal("duplicate id accepted")
	}

	// A cycle is not stable under greedy: somebody improves.
	eq, err := s.Equilibrium("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Stable || eq.Witness == nil {
		t.Fatalf("6-cycle reported stable: %+v", eq)
	}

	// Apply the witness; the move must improve the mover's cost.
	changed, err := s.Rewire(eq.Witness.Player, eq.Witness.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("improving rewire reported unchanged")
	}
	wf, err := s.Welfare()
	if err != nil {
		t.Fatal(err)
	}
	if wf.Costs[eq.Witness.Player] != eq.Witness.Cost {
		t.Fatalf("witness cost %d, post-move cost %d", eq.Witness.Cost, wf.Costs[eq.Witness.Player])
	}

	// Rewiring to the current strategy is a logged no-op.
	info, err := s.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]int{}, info.Arcs[0][1])
	if info.Arcs[0][0] != 0 {
		t.Fatalf("arcs not canonical: %v", info.Arcs)
	}
	changed, err = s.Rewire(0, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("identical rewire reported a change")
	}

	// Validation rejects malformed strategies and players.
	if _, err := s.Rewire(0, []int{0}, 0); err == nil {
		t.Fatal("self-loop strategy accepted")
	}
	if _, err := s.Rewire(99, []int{1}, 0); err == nil {
		t.Fatal("out-of-range player accepted")
	}
	if _, err := s.Rewire(0, []int{1, 2}, 0); err == nil {
		t.Fatal("over-budget strategy accepted")
	}
	if _, err := s.BestResponse(0, "nope", 0); err == nil {
		t.Fatal("unknown responder accepted")
	}
}

func TestDynamicsConvergeAndMemo(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	s, err := m.Create(api.CreateRequest{ID: "dyn", Graph: &bbncg.GeneratorSpec{Kind: "random", N: 10, B: 2, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Step(200)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("greedy dynamics did not settle in %d rounds (%d moves)", rep.Rounds, rep.Moves)
	}
	// Settled: the next equilibrium scan must be stable, and repeating
	// it must ride the round memo with zero resyncs.
	eq, err := s.Equilibrium("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Stable {
		t.Fatal("post-convergence scan found an improving move")
	}
	before := s.Stats().Pool
	for i := 0; i < 3; i++ {
		if eq, err = s.Equilibrium("", 0); err != nil || !eq.Stable {
			t.Fatalf("repeat scan %d: stable=%v err=%v", i, eq.Stable, err)
		}
	}
	after := s.Stats().Pool
	if after.Resyncs != before.Resyncs {
		t.Fatalf("repeated scans on an unchanged session resynced: %d -> %d", before.Resyncs, after.Resyncs)
	}
	if after.MemoHits <= before.MemoHits {
		t.Fatalf("repeated scans did not ride the memo: %d -> %d", before.MemoHits, after.MemoHits)
	}
	// A memoised single-player query returns the full recorded answer.
	br, err := s.BestResponse(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	br2, err := s.BestResponse(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !br2.Memo {
		t.Fatal("second identical query did not memo")
	}
	br2.Memo = false
	br.Memo = false
	if !reflect.DeepEqual(br, br2) {
		t.Fatalf("memo answer drifted: %+v vs %+v", br, br2)
	}
}

func TestReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// AnchorEvery 3 forces anchors mid-history so replay exercises the
	// anchor-then-rewires path, not just create-then-rewires.
	m := openManager(t, dir, Options{AnchorEvery: 3})
	s, err := m.Create(cycleRequest("rep"))
	if err != nil {
		t.Fatal(err)
	}
	// Drive a handful of improving moves through the journal.
	for i := 0; i < 8; i++ {
		eq, err := s.Equilibrium("", 0)
		if err != nil {
			t.Fatal(err)
		}
		if eq.Stable {
			break
		}
		if _, err := s.Rewire(eq.Witness.Player, eq.Witness.Strategy, 0); err != nil {
			t.Fatal(err)
		}
	}
	wantInfo, err := s.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	wantBR, wantWF := answers(t, s)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, dir, Options{AnchorEvery: 3})
	s2, ok := m2.Get("rep")
	if !ok {
		t.Fatal("session not replayed")
	}
	gotInfo, err := s2.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	if !gotInfo.Replayed {
		t.Fatal("replayed session not marked replayed")
	}
	if !reflect.DeepEqual(wantInfo.Arcs, gotInfo.Arcs) {
		t.Fatalf("replayed profile differs:\n want %v\n got  %v", wantInfo.Arcs, gotInfo.Arcs)
	}
	if gotInfo.Seq != wantInfo.Seq || gotInfo.Moves != wantInfo.Moves {
		t.Fatalf("replayed counters differ: seq %d/%d moves %d/%d",
			gotInfo.Seq, wantInfo.Seq, gotInfo.Moves, wantInfo.Moves)
	}
	gotBR, gotWF := answers(t, s2)
	if !reflect.DeepEqual(wantBR, gotBR) {
		t.Fatalf("replayed best responses differ:\n want %+v\n got  %+v", wantBR, gotBR)
	}
	if !reflect.DeepEqual(wantWF, gotWF) {
		t.Fatalf("replayed welfare differs: %+v vs %+v", wantWF, gotWF)
	}
}

func TestReplayAbandonedStore(t *testing.T) {
	// Abandon the manager without Close — the crash shape — and reopen:
	// O_APPEND records carry the whole truth, the manifest is advisory.
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create(cycleRequest("aband"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rewire(0, []int{3}, 0); err != nil {
		t.Fatal(err)
	}
	wantInfo, err := s.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	wantBR, wantWF := answers(t, s)
	// No m.Close(): the store object is simply dropped.

	m2 := openManager(t, dir, Options{})
	s2, ok := m2.Get("aband")
	if !ok {
		t.Fatal("session not replayed from abandoned store")
	}
	gotInfo, err := s2.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantInfo.Arcs, gotInfo.Arcs) {
		t.Fatalf("profile differs after abandoned restart:\n want %v\n got  %v", wantInfo.Arcs, gotInfo.Arcs)
	}
	gotBR, gotWF := answers(t, s2)
	if !reflect.DeepEqual(wantBR, gotBR) || !reflect.DeepEqual(wantWF, gotWF) {
		t.Fatal("answers differ after abandoned restart")
	}
}

func TestDeleteTombstoneAndRecreate(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	s, err := m.Create(cycleRequest("phoenix"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("phoenix"); err != nil {
		t.Fatal(err)
	}
	// Post-close access is defined behaviour.
	if _, err := s.Rewire(0, []int{2}, 0); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("rewire on deleted session: %v", err)
	}
	if _, err := s.BestResponse(0, "", 0); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query on deleted session: %v", err)
	}
	if _, ok := m.Get("phoenix"); ok {
		t.Fatal("deleted session still listed")
	}
	if err := m.Delete("phoenix"); err == nil {
		t.Fatal("double delete accepted")
	}

	// Re-creating the id continues the event seq, so the store's unique
	// record ids never collide — across a restart too.
	s2, err := m.Create(api.CreateRequest{ID: "phoenix", Graph: &bbncg.GeneratorSpec{Kind: "star", N: 4}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 4 {
		t.Fatalf("recreated session n=%d, want 4", info.N)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, Options{})
	s3, ok := m2.Get("phoenix")
	if !ok {
		t.Fatal("recreated session not replayed")
	}
	info3, err := s3.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	if info3.N != 4 || info3.Version != info.Version {
		t.Fatalf("replay picked the wrong create: %+v", info3)
	}

	// A deleted-and-never-recreated id replays as a tombstone only.
	if err := m2.Delete("phoenix"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := openManager(t, dir, Options{})
	if _, ok := m3.Get("phoenix"); ok {
		t.Fatal("tombstoned session came back")
	}
}

func TestReplayFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	if _, err := m.Create(cycleRequest("faulty")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.NewSet(fault.Rule{Site: "serve.session.replay", Mode: fault.ModeError, Sched: fault.Always()}))
	defer fault.Disarm()
	if _, err := Open(dir, Options{}); err == nil || !fault.Injected(err) {
		t.Fatalf("replay fault did not surface: %v", err)
	}
	fault.Disarm()
	openManager(t, dir, Options{}) // clean reopen works
}

func TestAnchorFaultIsAdvisory(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{AnchorEvery: 1})
	s, err := m.Create(cycleRequest("anchf"))
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.NewSet(fault.Rule{Site: "serve.snapshot.write", Mode: fault.ModeError, Sched: fault.Always()}))
	_, err = s.Rewire(0, []int{3}, 0)
	fault.Disarm()
	if err == nil || !fault.Injected(err) {
		t.Fatalf("anchor fault not surfaced: %v", err)
	}
	// The mutation itself landed (log-then-apply precedes the anchor):
	// the session stays consistent and replays the move.
	wantInfo, err := s.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, Options{AnchorEvery: 1})
	s2, _ := m2.Get("anchf")
	gotInfo, err := s2.Info(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantInfo.Arcs, gotInfo.Arcs) {
		t.Fatalf("mutation lost behind failed anchor:\n want %v\n got  %v", wantInfo.Arcs, gotInfo.Arcs)
	}
	// With the fault gone the next mutation anchors again.
	if _, err := s2.Rewire(1, []int{4}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsNoCrossTalk is the concurrency contract: N
// goroutines on disjoint sessions, interleaving rewires, queries and
// stats reads under -race, with zero resyncs anywhere — sessions never
// interfere with each other's warm caches.
func TestConcurrentSessionsNoCrossTalk(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	const nSessions = 8
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("conc-%d", i)
		if _, err := m.Create(api.CreateRequest{
			ID:    ids[i],
			Graph: &bbncg.GeneratorSpec{Kind: "random", N: 12, B: 2, Seed: int64(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, nSessions+1)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			s, ok := m.Get(id)
			if !ok {
				errc <- fmt.Errorf("%s: missing", id)
				return
			}
			for iter := 0; iter < 30; iter++ {
				for u := 0; u < 12; u++ {
					br, err := s.BestResponse(u, "", 0)
					if err != nil {
						errc <- fmt.Errorf("%s: %w", id, err)
						return
					}
					if br.Improves && iter%3 == 0 {
						if _, err := s.Rewire(u, br.Strategy, 0); err != nil {
							errc <- fmt.Errorf("%s: %w", id, err)
							return
						}
					}
				}
				if _, err := s.Welfare(); err != nil {
					errc <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}(id)
	}
	// A stats scraper races the workers on the lock-free read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, st := range m.List() {
				if st.N != 12 {
					errc <- fmt.Errorf("stats cross-talk: %+v", st)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Settle every session (one full pass syncs each entry to the final
	// profile), then hammer repeated queries: an unchanged session must
	// serve them with zero further resyncs — the cross-session isolation
	// contract, since any foreign interference would show up as repairs.
	settle := func() {
		for _, id := range ids {
			s, _ := m.Get(id)
			for u := 0; u < 12; u++ {
				if _, err := s.BestResponse(u, "", 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	settle()
	before := make(map[string]bbncg.PoolStats, nSessions)
	for _, st := range m.List() {
		if st.Pool.Fills == 0 {
			t.Fatalf("session %s never filled a cache (test exercised nothing)", st.ID)
		}
		before[st.ID] = st.Pool
	}
	for i := 0; i < 3; i++ {
		settle()
	}
	for _, st := range m.List() {
		b := before[st.ID]
		if st.Pool.Resyncs != b.Resyncs {
			t.Fatalf("session %s resynced on an unchanged profile: %d -> %d", st.ID, b.Resyncs, st.Pool.Resyncs)
		}
		if st.Pool.Repairs != b.Repairs {
			t.Fatalf("session %s repaired on an unchanged profile: %d -> %d", st.ID, b.Repairs, st.Pool.Repairs)
		}
		if st.Pool.Fills != b.Fills || st.Pool.RowsRefilled != b.RowsRefilled {
			t.Fatalf("session %s refilled rows on an unchanged profile: fills %d -> %d, rows %d -> %d",
				st.ID, b.Fills, st.Pool.Fills, b.RowsRefilled, st.Pool.RowsRefilled)
		}
		if st.Pool.MemoHits <= b.MemoHits {
			t.Fatalf("session %s repeated queries missed the memo: %d -> %d", st.ID, b.MemoHits, st.Pool.MemoHits)
		}
	}
}

func TestGlobalBudgetEvictsLRU(t *testing.T) {
	// A global cap below two warm footprints: warming the second session
	// must evict the first (the LRU), and the evicted session must still
	// answer identically from a cold refill.
	m := openManager(t, t.TempDir(), Options{GlobalPoolBudget: 1 << 14})
	var ss [2]*Session
	for i := range ss {
		s, err := m.Create(api.CreateRequest{
			ID:    fmt.Sprintf("ev-%d", i),
			Graph: &bbncg.GeneratorSpec{Kind: "random", N: 24, B: 2, Seed: int64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	warm := func(s *Session) {
		t.Helper()
		for u := 0; u < 24; u++ {
			if _, err := s.BestResponse(u, "", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(ss[0])
	want, _ := answers(t, ss[0])
	m.Get("ev-1") // make ev-1 most recent, ev-0 the LRU
	warm(ss[1])
	if n := m.Rebalance("ev-1"); n == 0 {
		t.Fatalf("rebalance evicted nothing over a %d-byte cap", int64(1<<14))
	}
	st0, st1 := ss[0].Stats(), ss[1].Stats()
	if st0.Evictions == 0 {
		t.Fatalf("LRU session not evicted (ev-0 %d evictions, ev-1 %d)", st0.Evictions, st1.Evictions)
	}
	got, _ := answers(t, ss[0])
	if !reflect.DeepEqual(want, got) {
		t.Fatal("evicted session answers differ after cold refill")
	}
}

func TestValidSessionID(t *testing.T) {
	for _, id := range []string{"a", "a-b-3", "s-0123456789abcdef"} {
		if err := ValidSessionID(id); err != nil {
			t.Errorf("ValidSessionID(%q) = %v", id, err)
		}
	}
	for _, id := range []string{"", "-lead", "UPPER", "has space", "dot.dot", strings.Repeat("a", 41)} {
		if err := ValidSessionID(id); err == nil {
			t.Errorf("ValidSessionID(%q) accepted", id)
		}
	}
}

// --- HTTP layer ---

func newTestServer(t *testing.T, opt Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := openManager(t, t.TempDir(), opt)
	ts := httptest.NewServer(NewServer(m, Config{}))
	t.Cleanup(ts.Close)
	return ts, m
}

// call drives one JSON request and decodes the response into out.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Options{})

	var health api.Health
	if code := call(t, ts, "GET", "/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || !strings.Contains(health.Version, "bbncg") || health.Sessions != 0 {
		t.Fatalf("healthz: %+v", health)
	}
	if health.API != api.Version {
		t.Fatalf("healthz api version %q, want %q", health.API, api.Version)
	}

	var info api.SessionInfo
	if code := call(t, ts, "POST", "/v1/sessions", cycleRequest("web"), &info); code != 201 {
		t.Fatalf("create: %d", code)
	}
	if info.ID != "web" || info.N != 6 || info.Version != "SUM" || info.Responder != "greedy" {
		t.Fatalf("create info: %+v", info)
	}

	var eq api.EquilibriumResult
	if code := call(t, ts, "GET", "/v1/sessions/web/equilibrium", nil, &eq); code != 200 {
		t.Fatalf("equilibrium: %d", code)
	}
	if eq.Stable || eq.Witness == nil {
		t.Fatalf("cycle stable over HTTP: %+v", eq)
	}

	var rew api.RewireResult
	body := api.RewireRequest{Player: eq.Witness.Player, Strategy: eq.Witness.Strategy}
	if code := call(t, ts, "POST", "/v1/sessions/web/rewire", body, &rew); code != 200 || !rew.Changed {
		t.Fatalf("rewire: %d %+v", code, rew)
	}

	var br api.BestResponseResult
	path := fmt.Sprintf("/v1/sessions/web/bestresponse?player=%d", eq.Witness.Player)
	if code := call(t, ts, "GET", path, nil, &br); code != 200 {
		t.Fatalf("bestresponse: %d", code)
	}
	if br.Improves {
		t.Fatalf("player still improves after taking the witness: %+v", br)
	}
	if code := call(t, ts, "GET", "/v1/sessions/web/bestresponse", nil, nil); code != 400 {
		t.Fatalf("bestresponse without player: %d", code)
	}
	if code := call(t, ts, "GET", "/v1/sessions/web/bestresponse?player=banana", nil, nil); code != 400 {
		t.Fatalf("bestresponse with bad player: %d", code)
	}

	var wf api.WelfareResult
	if code := call(t, ts, "GET", "/v1/sessions/web/welfare", nil, &wf); code != 200 || wf.Social <= 0 {
		t.Fatalf("welfare: %d %+v", code, wf)
	}

	var dyn api.DynamicsResult
	if code := call(t, ts, "POST", "/v1/sessions/web/dynamics", api.DynamicsRequest{Rounds: 100}, &dyn); code != 200 {
		t.Fatalf("dynamics: %d", code)
	}
	if !dyn.Converged {
		t.Fatalf("dynamics did not converge: %+v", dyn)
	}
	if len(dyn.Trace) != dyn.Rounds {
		t.Fatalf("dynamics trace has %d rounds, report says %d", len(dyn.Trace), dyn.Rounds)
	}

	var withArcs api.SessionInfo
	if code := call(t, ts, "GET", "/v1/sessions/web?arcs=1", nil, &withArcs); code != 200 || len(withArcs.Arcs) != 6 {
		t.Fatalf("info with arcs: %d %+v", code, withArcs)
	}

	var stats api.StatsSnapshot
	if code := call(t, ts, "GET", "/statsz", nil, &stats); code != 200 || len(stats.Sessions) != 1 {
		t.Fatalf("statsz: %d %+v", code, stats)
	}
	if stats.Sessions[0].N != 6 || stats.Sessions[0].Pool.Acquires == 0 {
		t.Fatalf("statsz counters empty: %+v", stats.Sessions[0])
	}
	if stats.Draining {
		t.Fatalf("statsz reports draining on a live server")
	}

	if code := call(t, ts, "DELETE", "/v1/sessions/web", nil, nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code := call(t, ts, "GET", "/v1/sessions/web", nil, nil); code != 404 {
		t.Fatalf("get after delete: %d", code)
	}
	if code := call(t, ts, "DELETE", "/v1/sessions/web", nil, nil); code != 404 {
		t.Fatalf("double delete: %d", code)
	}
	if code := call(t, ts, "POST", "/v1/sessions", map[string]any{"bogus": 1}, nil); code != 400 {
		t.Fatalf("unknown create field: %d", code)
	}
}
