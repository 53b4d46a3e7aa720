package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/pkg/bbncg"
	"repro/pkg/bbncg/api"
	"repro/pkg/bbncg/client"
)

// serveSize shapes the serve workload.
type serveSize struct {
	n       int // players per session
	clients int // closed-loop clients, each owning a SUM and a MAX session
	passOps int // requests per client per pass
}

var serveDefault = serveSize{n: 96, clients: 2, passOps: 1000}

// serveRSSPasses is the untraced pass after which serve reads its peak
// RSS. The event log's in-memory index grows with every mutation, so a
// peak read at the end of a time-boxed run would grow with throughput;
// read after a fixed amount of traffic it measures the same work on
// every commit.
const serveRSSPasses = 8

// Request classes of the serve mix.
const (
	classQuery  = "query"
	classRewire = "rewire"
	classStep   = "step"
)

var serveClasses = []string{classQuery, classRewire, classStep}

// opKind is one kind of request in the serve mix.
type opKind int

const (
	opBestResponse opKind = iota
	opWelfare
	opBatch
	opRewire
	opStep
)

// opMix is the traffic mix: each kind's share in percent and its class.
var opMix = []struct {
	kind  opKind
	share int
	class string
}{
	{opBestResponse, 50, classQuery},
	{opWelfare, 10, classQuery},
	{opBatch, 10, classQuery},
	{opRewire, 25, classRewire},
	{opStep, 5, classStep},
}

// drawOp draws one op kind from the mix and returns it with its class.
func drawOp(rng *rand.Rand) (opKind, string) {
	x := rng.Intn(100)
	for _, m := range opMix {
		if x < m.share {
			return m.kind, m.class
		}
		x -= m.share
	}
	panic("perfbench: op mix shares do not sum to 100")
}

// serveQuota admits every request the closed loop can offer, so each
// request pays admission without ever being refused.
var serveQuota = serve.QuotaConfig{RPS: 1e6, Burst: 1 << 20, MaxInFlight: 64}

// requestIDHeader carries a request's client span ID to the server.
const requestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// requestIDTransport copies the request ID of the request context into
// the X-Request-Id header.
type requestIDTransport struct{ base http.RoundTripper }

func (t requestIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, id)
	}
	return t.base.RoundTrip(r)
}

// traceHandler records a server span around next, parented by the
// client span named in X-Request-Id; untagged requests pass through.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(requestIDHeader)
		parent, err := strconv.Atoi(rid)
		if err != nil {
			next.ServeHTTP(w, r) // untagged: set-up, counters and untraced passes
			return
		}
		id := tr.begin("serve.handler", rid, parent)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// sample is one client-side request measurement.
type sample struct {
	class string
	ms    float64
	span  int // client span, traced passes only
}

// serveClient is one closed-loop client: it sends its next request only
// after the previous reply.
type serveClient struct {
	c       *client.Client
	rng     *rand.Rand
	n       int
	ids     [2]string // its SUM and MAX sessions
	samples []sample
	failed  []string
}

// serveHarness is an in-process server on loopback plus its clients.
type serveHarness struct {
	dir       string
	m         *serve.Manager
	hs        *http.Server
	served    chan error
	transport *http.Transport
	clients   []*serveClient
}

// startServe opens a fresh store, serves it on loopback and creates
// every client's two sessions, converged.
func startServe(ctx context.Context, workdir string, size serveSize, seed int64, tr *tracer) (*serveHarness, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	m, err := serve.Open(dir, serve.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = serve.NewServer(m, serve.Config{Quota: serveQuota})
	transport := &http.Transport{MaxIdleConnsPerHost: size.clients}
	var rt http.RoundTripper = transport
	if tr != nil {
		h = traceHandler(tr, h)
		rt = requestIDTransport{base: transport}
	}
	sh := &serveHarness{
		dir: dir, m: m, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		transport: transport,
	}
	go func() { sh.served <- sh.hs.Serve(ln) }()
	hc := &http.Client{Transport: rt, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()
	for i := 0; i < size.clients; i++ {
		c := &serveClient{
			c:   client.New(base, client.WithHTTPClient(hc), client.WithAPIKey(fmt.Sprintf("bench-%d", i))),
			rng: rand.New(rand.NewSource(derive(seed, 1000+int64(i)))),
			n:   size.n,
		}
		for j, v := range []string{"SUM", "MAX"} {
			id := fmt.Sprintf("c%d-%s", i, strings.ToLower(v))
			spec := &bbncg.GeneratorSpec{Kind: "random", N: size.n, B: 2, Seed: derive(seed, int64(i), int64(j))}
			if _, err := c.c.CreateSession(ctx, api.CreateRequest{ID: id, Version: v, Graph: spec}); err != nil {
				sh.close()
				return nil, fmt.Errorf("create %s: %w", id, err)
			}
			rep, err := c.c.Dynamics(ctx, id, 10_000)
			if err == nil && !rep.Converged {
				err = errors.New("did not converge")
			}
			if err != nil {
				sh.close()
				return nil, fmt.Errorf("converge %s: %w", id, err)
			}
			c.ids[j] = id
		}
		sh.clients = append(sh.clients, c)
	}
	return sh, nil
}

// stopHTTP stops the listener and waits for Serve to return.
func (sh *serveHarness) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sh.hs.Shutdown(ctx)
	if serr := <-sh.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sh.transport.CloseIdleConnections()
	return err
}

// close stops the server, closes the manager and removes the store.
func (sh *serveHarness) close() {
	sh.stopHTTP()
	sh.m.Close()
	os.RemoveAll(sh.dir)
}

// do draws and sends the client's next request. Every random choice is
// drawn before the request goes out, so the op sequence is a function of
// the seed alone.
func (c *serveClient) do(ctx context.Context, tr *tracer) {
	kind, class := drawOp(c.rng)
	sess := c.ids[c.rng.Intn(2)]
	player := c.rng.Intn(c.n)
	var strategy []int
	var batch []api.BatchOp
	switch kind {
	case opRewire:
		strategy = randomStrategy(c.rng, c.n, player, 2)
	case opBatch:
		batch = []api.BatchOp{
			{Session: c.ids[0], Op: api.OpBestResponse, Player: c.rng.Intn(c.n)},
			{Session: c.ids[1], Op: api.OpBestResponse, Player: c.rng.Intn(c.n)},
			{Session: c.ids[0], Op: api.OpWelfare},
			{Session: c.ids[1], Op: api.OpWelfare},
		}
	}
	s := sample{class: class}
	if tr != nil {
		s.span = tr.beginRoot("client." + class)
		ctx = context.WithValue(ctx, requestIDKey{}, strconv.Itoa(s.span))
	}
	t0 := time.Now()
	var err error
	switch kind {
	case opBestResponse:
		_, err = c.c.BestResponse(ctx, sess, player, "", 0)
	case opWelfare:
		_, err = c.c.Welfare(ctx, sess)
	case opBatch:
		var res api.BatchResult
		res, err = c.c.Batch(ctx, batch)
		for _, it := range res.Results {
			if it.Error != nil && err == nil {
				err = it.Error
			}
		}
	case opRewire:
		_, err = c.c.Rewire(ctx, sess, api.RewireRequest{Player: player, Strategy: strategy})
	case opStep:
		_, err = c.c.Dynamics(ctx, sess, 1)
	}
	s.ms = ms(time.Since(t0).Seconds())
	if tr != nil {
		tr.end(s.span)
	}
	c.samples = append(c.samples, s)
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("%s: %v", class, err))
	}
}

// randomStrategy draws b distinct targets other than u.
func randomStrategy(rng *rand.Rand, n, u, b int) []int {
	s := make([]int, 0, b)
	for len(s) < b {
		v := rng.Intn(n)
		if v == u || slices.Contains(s, v) {
			continue
		}
		s = append(s, v)
	}
	return s
}

// pass runs ops requests on every client concurrently and returns the
// wall and process CPU seconds until the last reply.
func (sh *serveHarness) pass(ctx context.Context, ops int, tr *tracer) (wall, cpu float64) {
	var wg sync.WaitGroup
	w := startWatch()
	for _, c := range sh.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				c.do(ctx, tr)
			}
		}(c)
	}
	wg.Wait()
	return w.elapsed()
}

// arcs fetches every session's profile as canonical JSON.
func (sh *serveHarness) arcs(ctx context.Context) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, c := range sh.clients {
		for _, id := range c.ids {
			info, err := c.c.Session(ctx, id, true)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(info.Arcs)
			if err != nil {
				return nil, err
			}
			out[id] = raw
		}
	}
	return out, nil
}

// serveCounters are the /statsz counters summed over sessions.
type serveCounters struct {
	seq int64
	bbncg.PoolStats
}

func (sh *serveHarness) counters(ctx context.Context) (serveCounters, error) {
	st, err := sh.clients[0].c.Stats(ctx)
	if err != nil {
		return serveCounters{}, err
	}
	var sc serveCounters
	for _, s := range st.Sessions {
		sc.seq += s.Seq
		sc.Acquires += s.Pool.Acquires
		sc.Fills += s.Pool.Fills
		sc.DeltaRepairs += s.Pool.DeltaRepairs
		sc.Resyncs += s.Pool.Resyncs
		sc.StampSkips += s.Pool.StampSkips
		sc.MemoHits += s.Pool.MemoHits
		sc.FullRefills += s.Pool.FullRefills
	}
	return sc, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// serveTrace accumulates the traced passes' per-layer numbers.
type serveTrace struct {
	events, bytes                               []float64
	fills, delta, resyncs, skips, memo, refills []float64
	memoHits, scans                             float64
}

// runServe is the serve workload: closed-loop clients replay a seeded
// op mix against warm sessions of an in-process server.
func runServe(cfg config, size serveSize, rep *report) error {
	ctx := context.Background()
	var ps passStats
	var sh *serveHarness
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := 0; i < serveSetupRepeats; i++ {
		if sh != nil {
			sh.close()
		}
		w := startWatch()
		var err error
		sh, err = startServe(ctx, cfg.workdir, size, cfg.seed, tr)
		if err != nil {
			return err
		}
		_, cpu := w.elapsed()
		ps.setups = append(ps.setups, cpu)
	}
	defer os.RemoveAll(sh.dir)
	var traced []float64
	var st serveTrace
	measured := 0.0
	for p := 0; p == 0 || measured < cfg.seconds; p++ {
		wall, cpu := sh.pass(ctx, size.passOps, nil)
		measured += wall
		ps.walls = append(ps.walls, wall)
		ps.cpus = append(ps.cpus, cpu)
		if len(ps.walls) == serveRSSPasses && !cfg.trace {
			if err := setPeakRSS(rep); err != nil {
				sh.close()
				return err
			}
		}
		if p == 0 {
			arcs, err := sh.arcs(ctx)
			if err != nil {
				sh.close()
				return err
			}
			for _, c := range sh.clients {
				for _, id := range c.ids {
					rep.digestf("serve %s arcs=%s", id, shortHash(arcs[id]))
				}
			}
		}
		if tr == nil {
			continue
		}
		before, err := sh.counters(ctx)
		if err != nil {
			sh.close()
			return err
		}
		b0, err := dirBytes(sh.dir)
		if err != nil {
			sh.close()
			return err
		}
		wall, _ = sh.pass(ctx, size.passOps, tr)
		measured += wall
		traced = append(traced, wall)
		after, err := sh.counters(ctx)
		if err != nil {
			sh.close()
			return err
		}
		b1, err := dirBytes(sh.dir)
		if err != nil {
			sh.close()
			return err
		}
		st.add(before, after, b1-b0)
	}

	// Every session must replay to the same profile after a clean close.
	want, err := sh.arcs(ctx)
	if err != nil {
		sh.close()
		return err
	}
	if err := sh.stopHTTP(); err != nil {
		sh.m.Close()
		return err
	}
	if err := sh.m.Close(); err != nil {
		return err
	}
	if err := checkReplay(rep, sh.dir, want); err != nil {
		return err
	}

	// Untraced samples give the end-to-end numbers; traced ones the
	// per-layer split.
	byClass := make(map[string][]float64)
	requests := 0
	for _, c := range sh.clients {
		requests += len(c.samples)
		rep.attempted += len(c.samples)
		rep.failed += len(c.failed)
		for _, f := range c.failed {
			rep.notef("serve failed request: %s", f)
		}
		for _, s := range c.samples {
			if s.span != 0 {
				continue
			}
			ps.lat = append(ps.lat, s.ms)
			byClass[s.class] = append(byClass[s.class], s.ms)
		}
	}
	rep.check("serve.no_failed_requests", rep.failed == 0, "%d of %d requests failed", rep.failed, requests)
	ps.ops = len(ps.lat)
	ps.report(rep, "serve", "request")
	for _, class := range serveClasses {
		xs := byClass[class]
		rep.notef("serve %s %s", class, latencySummary(xs))
		if tr != nil {
			setClassLatency(rep, class, xs)
		}
	}
	if tr == nil {
		return nil
	}
	rep.set("trace_overhead", "ratio", median(traced)/median(ps.walls)-1)
	st.report(rep)
	traceServeLayers(rep, tr, sh.clients)
	return tr.write(spanFile(cfg.workdir, "serve"))
}

// checkReplay reopens the closed store and compares every session's
// replayed profile with want, byte for byte.
func checkReplay(rep *report, dir string, want map[string][]byte) error {
	m, err := serve.Open(dir, serve.Options{})
	if err != nil {
		return fmt.Errorf("reopen serve store: %w", err)
	}
	defer m.Close()
	for id, raw := range want {
		s, ok := m.Get(id)
		if !ok {
			rep.check("serve.replay."+id, false, "session missing after replay")
			continue
		}
		info, err := s.Info(true)
		if err != nil {
			return err
		}
		got, err := json.Marshal(info.Arcs)
		if err != nil {
			return err
		}
		rep.check("serve.replay."+id, bytes.Equal(got, raw), "replayed arcs must equal the live arcs byte for byte")
	}
	return nil
}

// setClassLatency sets one class's percentile metrics from untraced
// samples.
func setClassLatency(rep *report, class string, xs []float64) {
	rep.set("serve."+class+"_p50_ms", "ms", percentile(xs, p50))
	rep.set("serve."+class+"_p90_ms", "ms", percentile(xs, p90))
	if pm, ok := tailPercentile(len(xs)); ok {
		rep.set("serve."+class+"_tail_ms", "ms", percentile(xs, pm))
		rep.set("serve."+class+"_tail_pct", "percentile", float64(pm)/10)
	}
	rep.set("serve."+class+"_samples", "count", float64(len(xs)))
}

// add folds one traced pass's counter deltas into st.
func (st *serveTrace) add(before, after serveCounters, bytes int64) {
	st.events = append(st.events, float64(after.seq-before.seq))
	st.bytes = append(st.bytes, float64(bytes))
	st.fills = append(st.fills, float64(after.Fills-before.Fills))
	st.delta = append(st.delta, float64(after.DeltaRepairs-before.DeltaRepairs))
	st.resyncs = append(st.resyncs, float64(after.Resyncs-before.Resyncs))
	st.skips = append(st.skips, float64(after.StampSkips-before.StampSkips))
	st.memo = append(st.memo, float64(after.MemoHits-before.MemoHits))
	st.refills = append(st.refills, float64(after.FullRefills-before.FullRefills))
	st.memoHits += float64(after.MemoHits - before.MemoHits)
	st.scans += float64(after.MemoHits-before.MemoHits) + float64(after.Acquires-before.Acquires)
}

// report sets the per-pass means of the traced passes' counters.
func (st *serveTrace) report(rep *report) {
	rep.set("serve.events", "count", mean(st.events))
	rep.set("store.bytes", "bytes", mean(st.bytes))
	rep.set("core.pool.fills", "count", mean(st.fills))
	rep.set("core.pool.delta_repairs", "count", mean(st.delta))
	rep.set("core.pool.resyncs", "count", mean(st.resyncs))
	rep.set("core.pool.stamp_skips", "count", mean(st.skips))
	rep.set("core.pool.memo_hits", "count", mean(st.memo))
	rep.set("core.pool.full_refills", "count", mean(st.refills))
	// A response either hits the memo or acquires a cache entry.
	rep.set("core.pool.memo_hit_ratio", "ratio", ratio(st.memoHits, st.scans))
}

// traceServeLayers splits each traced request into client, handler and
// transport time: transport is the client span's self time, the part
// the server's handler span does not cover.
func traceServeLayers(rep *report, tr *tracer, clients []*serveClient) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	handler := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Name == "serve.handler" && s.Parent != 0 {
			handler[s.Parent] += s.dur()
		}
	}
	clientMs := make(map[string][]float64)
	handlerMs := make(map[string][]float64)
	transportMs := make(map[string][]float64)
	for _, c := range clients {
		for _, s := range c.samples {
			if s.span == 0 {
				continue
			}
			clientMs[s.class] = append(clientMs[s.class], ms(spans[s.span-1].dur().Seconds()))
			handlerMs[s.class] = append(handlerMs[s.class], ms(handler[s.span].Seconds()))
			transportMs[s.class] = append(transportMs[s.class], ms(self[s.span].Seconds()))
		}
	}
	for _, class := range serveClasses {
		rep.set("serve.client_ms."+class, "ms", mean(clientMs[class]))
		rep.set("serve.handler_ms."+class, "ms", mean(handlerMs[class]))
		rep.set("serve.transport_ms."+class, "ms", mean(transportMs[class]))
	}
}
