// Package api is the versioned wire surface of the bbncg session
// service: every request and response body `bbncg serve` speaks, as
// typed Go structs, in one place. The server (internal/serve), the
// typed client (pkg/bbncg/client), the demo client and the loadgen
// harness all marshal these exact types, so there is no duplicated or
// drifting wire shape anywhere in the tree.
//
// The API is versioned by URL prefix: every session route lives under
// /v1 and every response carries the `Bbncg-Api-Version: v1` header.
// Requests under an unknown /v{n} prefix are answered with the uniform
// error envelope and code "unsupported_version" — clients negotiate by
// path, not by sniffing response shapes.
//
// Errors are uniform. Every non-2xx response body is an ErrorEnvelope:
//
//	{"error": {"code": "bad_request", "message": "..."}}
//
// so clients parse failures the same way on every route, including 404s
// from unmatched paths and 405s from wrong methods.
package api

import (
	"fmt"
	"time"

	"repro/pkg/bbncg"
)

// Version is the current (and only) wire API version; the URL prefix is
// "/" + Version.
const Version = "v1"

// VersionHeader names the response header carrying the API version on
// every response, health and error paths included.
const VersionHeader = "Bbncg-Api-Version"

// Machine-readable error codes carried in the Error envelope. Clients
// branch on Code; Message is for humans.
const (
	CodeBadRequest         = "bad_request"         // malformed body, query or wire value (400)
	CodeNotFound           = "not_found"           // no such session or route (404)
	CodeMethodNotAllowed   = "method_not_allowed"  // route exists, method does not (405)
	CodeGone               = "gone"                // session deleted or server shut down (410)
	CodeRateLimited        = "rate_limited"        // per-client token quota exhausted (429)
	CodeConcurrencyLimited = "concurrency_limited" // per-client in-flight cap reached (429)
	CodeUnsupportedVersion = "unsupported_version" // unknown /v{n} prefix (404)
	CodeInternal           = "internal"            // server-side failure (500)
)

// Error is the typed wire error: a stable machine-readable code plus a
// human-readable message. It implements error, so the typed client
// returns it directly; Status and RetryAfter are client-side decoration
// (the HTTP status and Retry-After header of the response that carried
// it) and never marshalled.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	Status     int           `json:"-"`
	RetryAfter time.Duration `json:"-"`
}

func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("bbncg api: %s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("bbncg api: %s (%s)", e.Message, e.Code)
}

// ErrorEnvelope is the body of every non-2xx response:
// {"error": {code, message}}.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}

// CreateRequest is the wire form of session creation
// (POST /v1/sessions).
type CreateRequest struct {
	// ID names the session ([a-z0-9-], <= 40 chars); empty draws a
	// random one.
	ID string `json:"id,omitempty"`
	// Version is "SUM" (default) or "MAX".
	Version string `json:"version,omitempty"`
	// Budgets is the explicit budget vector; when omitted it is derived
	// from the initial profile's out-degrees.
	Budgets []int `json:"budgets,omitempty"`
	// Exactly one of Graph (generator spec) or Arcs (explicit arc
	// list, with N) supplies the initial profile.
	Graph *bbncg.GeneratorSpec `json:"graph,omitempty"`
	N     int                  `json:"n,omitempty"`
	Arcs  [][2]int             `json:"arcs,omitempty"`
	// Responder is the session's default responder: greedy (default),
	// swap or exact.
	Responder string `json:"responder,omitempty"`
	// Weights makes the session arc-weighted: queries answer weighted
	// costs on the weighted cache tier, and rewires may carry a weight.
	Weights *bbncg.WeightsSpec `json:"weights,omitempty"`
}

// SessionInfo is the wire form of session metadata
// (GET /v1/sessions/{id}, and the 201 body of create).
type SessionInfo struct {
	ID        string               `json:"id"`
	N         int                  `json:"n"`
	Version   string               `json:"version"`
	Budgets   []int                `json:"budgets"`
	Responder string               `json:"responder"`
	Graph     *bbncg.GeneratorSpec `json:"graph,omitempty"`
	Weights   *bbncg.WeightsSpec   `json:"weights,omitempty"`
	Seq       int64                `json:"seq"`
	Moves     int64                `json:"moves"`
	Replayed  bool                 `json:"replayed,omitempty"`
	Arcs      [][2]int             `json:"arcs,omitempty"`
}

// RewireRequest is the wire form of one explicit strategy change
// (POST /v1/sessions/{id}/rewire). In an arc-weighted session,
// Weight > 0 sets every new arc's weight (a rewire to the current
// strategy is then a pure reweighting).
type RewireRequest struct {
	Player   int   `json:"player"`
	Strategy []int `json:"strategy"`
	Weight   int32 `json:"weight,omitempty"`
}

// RewireResult reports whether the profile's topology actually changed.
type RewireResult struct {
	Changed bool `json:"changed"`
}

// DeleteResult acknowledges a session tombstone.
type DeleteResult struct {
	Deleted string `json:"deleted"`
}

// BestResponseResult is the wire form of a best-response query
// (GET /v1/sessions/{id}/bestresponse).
type BestResponseResult struct {
	Player    int    `json:"player"`
	Responder string `json:"responder"`
	Improves  bool   `json:"improves"`
	Strategy  []int  `json:"strategy"`
	Cost      int64  `json:"cost"`
	Current   int64  `json:"current"`
	Explored  int64  `json:"explored"`
	// Memo reports that the whole scan was skipped by the round memo
	// (the answer is the recorded one, still exact for this anchor).
	Memo bool `json:"memo,omitempty"`
}

// EquilibriumResult is the wire form of an equilibrium-status query
// (GET /v1/sessions/{id}/equilibrium).
type EquilibriumResult struct {
	Responder string `json:"responder"`
	Stable    bool   `json:"stable"`
	// Checked counts the players scanned (budget-0 players are stable
	// by definition and skipped).
	Checked int `json:"checked"`
	// Witness is the first improving deviation found, when not stable.
	Witness *BestResponseResult `json:"witness,omitempty"`
}

// WelfareResult is the wire form of a welfare query
// (GET /v1/sessions/{id}/welfare): the social cost plus each player's
// cost, weighted when the session is.
type WelfareResult struct {
	Social int64   `json:"social"`
	Costs  []int64 `json:"costs"`
}

// DynamicsRequest is the wire form of a served dynamics run
// (POST /v1/sessions/{id}/dynamics). Rounds bounds the run (<= 0 runs
// one round). From only applies to streamed runs (?stream=1): when
// > 0, the server first re-emits every recorded round trace entry with
// Round >= From — the reconnect/resume half of the streaming contract —
// before running new rounds. A `Last-Event-ID` request header (the
// standard SSE reconnect carrier) overrides From with id+1.
type DynamicsRequest struct {
	Rounds int `json:"rounds"`
	From   int `json:"from,omitempty"`
}

// RoundTrace is one round of a dynamics run: the session-global round
// number, the moves accepted in that round, and the social cost after
// it. Streamed dynamics emit one `round` SSE event per entry; the
// non-streamed response carries the same entries in
// DynamicsResult.Trace, byte-identically.
type RoundTrace struct {
	Round   int   `json:"round"`
	Moves   int   `json:"moves"`
	Welfare int64 `json:"welfare"`
}

// DynamicsResult summarises a served dynamics run. Trace holds the
// per-round welfare trace of this run's rounds (absent in the terminal
// `done` event of a streamed run, whose trace was already emitted
// round by round).
type DynamicsResult struct {
	Rounds    int          `json:"rounds"`
	Moves     int          `json:"moves"`
	Converged bool         `json:"converged"`
	Trace     []RoundTrace `json:"trace,omitempty"`
}

// SSE event names of a streamed dynamics run. Each `round` event
// carries a RoundTrace with its `id:` set to the round number (so
// Last-Event-ID reconnects resume exactly); the terminal event is
// either `done` (DynamicsResult) or `error` (Error). Comment lines
// (": hb") are heartbeats and carry no data.
const (
	StreamEventRound = "round"
	StreamEventDone  = "done"
	StreamEventError = "error"
)

// Batch op kinds accepted by POST /v1/batch.
const (
	OpCreate       = "create"
	OpInfo         = "info"
	OpRewire       = "rewire"
	OpBestResponse = "bestresponse"
	OpEquilibrium  = "equilibrium"
	OpWelfare      = "welfare"
	OpDynamics     = "dynamics"
)

// BatchOp is one operation of a batch request. Session names the target
// session for every op, including create (it becomes the new id when
// Create.ID is empty); ops naming the same session execute in request
// order, ops on distinct sessions run concurrently on the worker pool.
// Exactly the parameter field matching Op is consulted.
type BatchOp struct {
	Session string `json:"session,omitempty"`
	Op      string `json:"op"`

	Create   *CreateRequest   `json:"create,omitempty"`
	Rewire   *RewireRequest   `json:"rewire,omitempty"`
	Dynamics *DynamicsRequest `json:"dynamics,omitempty"`
	// Player, Responder and ExactCap parameterise bestresponse and
	// equilibrium ops, mirroring the query parameters of the unbatched
	// routes.
	Player    int    `json:"player,omitempty"`
	Responder string `json:"responder,omitempty"`
	ExactCap  int64  `json:"exactCap,omitempty"`
}

// BatchRequest executes Ops in one request: one scheduler pass
// amortises HTTP round-trips and pool acquisition across sessions.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchItem is the outcome of one batch op, aligned by index with the
// request. Exactly one of the result fields (or Error) is set — the
// same wire shapes as the unbatched routes, so batch-vs-sequential
// results are byte-identical. A failing op sets Error and never aborts
// its siblings.
type BatchItem struct {
	Session string `json:"session,omitempty"`
	Op      string `json:"op"`

	Error        *Error              `json:"error,omitempty"`
	Info         *SessionInfo        `json:"info,omitempty"`
	Rewire       *RewireResult       `json:"rewire,omitempty"`
	BestResponse *BestResponseResult `json:"bestResponse,omitempty"`
	Equilibrium  *EquilibriumResult  `json:"equilibrium,omitempty"`
	Welfare      *WelfareResult      `json:"welfare,omitempty"`
	Dynamics     *DynamicsResult     `json:"dynamics,omitempty"`
}

// BatchResult is the response of POST /v1/batch.
type BatchResult struct {
	Results []BatchItem `json:"results"`
}

// SessionStats is the wire form of one session's pool counters inside
// /statsz.
type SessionStats struct {
	ID        string          `json:"id"`
	N         int             `json:"n"`
	Seq       int64           `json:"seq"`
	Moves     int64           `json:"moves"`
	Evictions int64           `json:"evictions"`
	PoolBytes int64           `json:"poolBytes"`
	Pool      bbncg.PoolStats `json:"pool"`
}

// StatsSnapshot is the body of GET /statsz: every session's counters
// plus the server-level gauges the loadgen gates assert on.
type StatsSnapshot struct {
	Sessions []SessionStats `json:"sessions"`
	// InFlight counts /v1 requests currently being handled — it must
	// return to zero when clients disconnect (the stream-cancellation
	// leak check).
	InFlight int64 `json:"inFlight"`
	// Throttled counts requests rejected 429 by the quota middleware.
	Throttled int64 `json:"throttled"`
	// Draining mirrors /readyz.
	Draining bool `json:"draining"`
}

// Health is the body of GET /healthz: liveness plus build identity.
type Health struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	API      string `json:"api"`
	Sessions int    `json:"sessions"`
}

// Ready is the body of GET /readyz. Unlike /healthz (liveness: the
// process is up) it reports readiness to take NEW traffic: during a
// graceful drain the process is still alive and finishing in-flight
// requests, but /readyz answers 503 with Status "draining" so load
// balancers rotate it out before the listener closes.
type Ready struct {
	Ready  bool   `json:"ready"`
	Status string `json:"status"` // "ok" or "draining"
}

// VersionInfo is the body of GET /v1: explicit version negotiation.
type VersionInfo struct {
	API      string   `json:"api"`
	Versions []string `json:"versions"`
}
