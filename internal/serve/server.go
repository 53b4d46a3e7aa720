package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/version"
	"repro/pkg/bbncg/api"
)

// Config tunes the HTTP face of a Manager; the zero value serves
// unthrottled with default cadences.
type Config struct {
	// Quota enforces per-client token rates and in-flight caps on the
	// /v1 routes (health and stats endpoints are exempt); the zero
	// value disables both.
	Quota QuotaConfig
	// HeartbeatEvery is the SSE heartbeat cadence of streamed dynamics
	// (comment lines keeping proxies and clients convinced the
	// connection is alive between slow rounds). <= 0 means 10s.
	HeartbeatEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 10 * time.Second
	}
	return c
}

// Server is the HTTP face of a Manager. The wire contract — every
// request and response type, the error envelope, the version header —
// is pkg/bbncg/api; see docs/SERVE.md for the route reference.
//
//	GET    /v1                              version negotiation
//	POST   /v1/sessions                     create (api.CreateRequest)
//	GET    /v1/sessions                     list session stats
//	GET    /v1/sessions/{id}?arcs=1         session info (+profile)
//	DELETE /v1/sessions/{id}                tombstone and close
//	POST   /v1/sessions/{id}/rewire         api.RewireRequest
//	GET    /v1/sessions/{id}/bestresponse   ?player=&responder=&exactCap=
//	GET    /v1/sessions/{id}/equilibrium    ?responder=&exactCap=
//	GET    /v1/sessions/{id}/welfare
//	POST   /v1/sessions/{id}/dynamics       api.DynamicsRequest (?stream=1 → SSE)
//	POST   /v1/batch                        api.BatchRequest
//	GET    /healthz                         liveness + build identity
//	GET    /readyz                          readiness (503 while draining)
//	GET    /statsz                          api.StatsSnapshot
//
// Every mutation is durable before the response is written. Every
// error, 404s and 405s included, is the api.ErrorEnvelope.
type Server struct {
	m   *Manager
	cfg Config
	mux *http.ServeMux
	q   *quota

	// inflight gauges /v1 requests currently being handled; throttled
	// counts quota rejections. Both surface in /statsz — the loadgen
	// gates and the stream-cancellation leak test assert on them.
	inflight  atomic.Int64
	throttled atomic.Int64
	draining  atomic.Bool
}

// NewServer wires the routes over m.
func NewServer(m *Manager, cfg Config) *Server {
	s := &Server{m: m, cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	s.q = newQuota(s.cfg.Quota)
	s.mux.HandleFunc("GET /v1", s.handleVersion)
	s.mux.HandleFunc("GET /v1/{$}", s.handleVersion)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/rewire", s.handleRewire)
	s.mux.HandleFunc("GET /v1/sessions/{id}/bestresponse", s.handleBestResponse)
	s.mux.HandleFunc("GET /v1/sessions/{id}/equilibrium", s.handleEquilibrium)
	s.mux.HandleFunc("GET /v1/sessions/{id}/welfare", s.handleWelfare)
	s.mux.HandleFunc("POST /v1/sessions/{id}/dynamics", s.handleDynamics)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// ServeHTTP is the middleware spine: version header on everything,
// envelope-shaped 404/405 for unmatched requests, then quota admission
// and the in-flight gauge around the /v1 routes (health and stats stay
// exempt so monitoring never competes with traffic for quota).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.VersionHeader, api.Version)
	// mux.Handler only matches — path values are bound during
	// mux.ServeHTTP — so dispatch goes through the mux itself.
	h, pattern := s.mux.Handler(r)
	if pattern == "" {
		s.handleUnmatched(w, r, h)
		return
	}
	if !strings.Contains(pattern, "/v1") {
		s.mux.ServeHTTP(w, r)
		return
	}
	release, retryAfter, code := s.q.admit(clientKey(r))
	if code != "" {
		s.throttled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, code,
			fmt.Errorf("serve: client over %s; retry after %s", code, retryAfter))
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		release()
	}()
	s.mux.ServeHTTP(w, r)
}

// clientKey identifies the quota principal: the X-Api-Key header when
// present, otherwise the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// statusRecorder captures the status and headers the mux's built-in
// 404/405 handlers would have written, so the envelope keeps their
// semantics (405 + Allow) without their text/plain bodies.
type statusRecorder struct {
	h    http.Header
	code int
}

func (r *statusRecorder) Header() http.Header         { return r.h }
func (r *statusRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (r *statusRecorder) WriteHeader(code int)        { r.code = code }

// handleUnmatched answers requests no route claimed with the uniform
// envelope: unknown /v{n} prefixes get code unsupported_version (the
// negotiation half of the versioned API), wrong methods keep their 405
// and Allow header, everything else is a plain not_found.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request, h http.Handler) {
	rec := &statusRecorder{h: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, r)
	code, status := api.CodeNotFound, rec.code
	if status == http.StatusOK || status == 0 {
		status = http.StatusNotFound
	}
	err := fmt.Errorf("serve: no route %s %s", r.Method, r.URL.Path)
	switch {
	case status == http.StatusMethodNotAllowed:
		code = api.CodeMethodNotAllowed
		if allow := rec.h.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		err = fmt.Errorf("serve: method %s not allowed on %s", r.Method, r.URL.Path)
	case versionPrefix(r.URL.Path) != "" && versionPrefix(r.URL.Path) != api.Version:
		code = api.CodeUnsupportedVersion
		err = fmt.Errorf("serve: unsupported API version %q (supported: %s)", versionPrefix(r.URL.Path), api.Version)
	}
	writeError(w, status, code, err)
}

// versionPrefix extracts a leading /v{n} path segment ("" when absent).
func versionPrefix(path string) string {
	seg, _, _ := strings.Cut(strings.TrimPrefix(path, "/"), "/")
	if len(seg) >= 2 && seg[0] == 'v' {
		if _, err := strconv.Atoi(seg[1:]); err == nil {
			return seg
		}
	}
	return ""
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeError writes the uniform envelope.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, api.ErrorEnvelope{Err: api.Error{Code: code, Message: err.Error()}})
}

// errToAPI classifies a session/manager error onto (status, code):
// closed sessions are gone, everything else a session rejects is a bad
// request.
func errToAPI(err error) (int, string) {
	if errors.Is(err, ErrSessionClosed) {
		return http.StatusGone, api.CodeGone
	}
	return http.StatusBadRequest, api.CodeBadRequest
}

// writeErr maps a session error to its envelope.
func writeErr(w http.ResponseWriter, err error) {
	status, code := errToAPI(err)
	writeError(w, status, code, err)
}

// session resolves {id}, answering 404 itself when absent.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("serve: no session %q", id))
		return nil, false
	}
	return sess, true
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	return nil
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.VersionInfo{API: api.Version, Versions: []string{api.Version}})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	sess, err := s.m.Create(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := sess.Info(false)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	info, err := sess.Info(r.URL.Query().Get("arcs") == "1")
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.m.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, api.DeleteResult{Deleted: id})
}

func (s *Server) handleRewire(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req api.RewireRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	changed, err := sess.Rewire(req.Player, req.Strategy, req.Weight)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.m.Rebalance(sess.ID())
	writeJSON(w, http.StatusOK, api.RewireResult{Changed: changed})
}

// queryInt64 parses an optional numeric query parameter.
func queryInt64(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: query %s=%q: want an integer", name, raw)
	}
	return v, nil
}

func (s *Server) handleBestResponse(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	player, err := queryInt64(r, "player")
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	if r.URL.Query().Get("player") == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("serve: query player is required"))
		return
	}
	exactCap, err := queryInt64(r, "exactCap")
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	ans, err := sess.BestResponse(int(player), r.URL.Query().Get("responder"), exactCap)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.m.Rebalance(sess.ID())
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleEquilibrium(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	exactCap, err := queryInt64(r, "exactCap")
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	ans, err := sess.Equilibrium(r.URL.Query().Get("responder"), exactCap)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.m.Rebalance(sess.ID())
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleWelfare(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	wf, err := sess.Welfare()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.m.Rebalance(sess.ID())
	writeJSON(w, http.StatusOK, wf)
}

func (s *Server) handleDynamics(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req api.DynamicsRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		s.streamDynamics(w, r, sess, req)
		return
	}
	if req.From != 0 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("serve: from applies to streamed dynamics (?stream=1) only"))
		return
	}
	rep, err := sess.Step(req.Rounds)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.m.Rebalance(sess.ID())
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Status:   "ok",
		Version:  version.String(),
		API:      api.Version,
		Sessions: s.m.Len(),
	})
}

// handleReadyz is the load-balancer half of graceful drain: distinct
// from /healthz (the process is alive either way), it flips to 503
// "draining" the moment shutdown begins, so rotation happens before
// connections start dying.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Ready{Ready: false, Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, api.Ready{Ready: true, Status: "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.StatsSnapshot{
		Sessions:  s.m.List(),
		InFlight:  s.inflight.Load(),
		Throttled: s.throttled.Load(),
		Draining:  s.draining.Load(),
	})
}

// SetDraining flips the /readyz readiness answer; Run calls it when the
// drain begins.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// InFlight reports the live /v1 request gauge (test hook).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Run serves on addr until ctx is cancelled, then drains: /readyz
// flips to 503 draining, in-flight requests finish (bounded by the
// grace period), the listener closes, and the manager flushes the
// store manifest. ready, when non-nil, receives the bound address once
// listening (for :0 callers).
func Run(ctx context.Context, addr string, m *Manager, cfg Config, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	sv := NewServer(m, cfg)
	hs := &http.Server{Handler: sv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		m.Close()
		return err
	case <-ctx.Done():
	}
	sv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	return m.Close()
}
