package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/pkg/bbncg/api"
)

// sseWriter serialises Server-Sent Events onto one response. The mutex
// exists because the heartbeat ticker writes concurrently with the
// round emitter; everything else is single-writer.
type sseWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	return &sseWriter{w: w, fl: fl}, true
}

// event writes one SSE event. id < 0 omits the id field.
func (s *sseWriter) event(name string, id int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= 0 {
		if _, err := fmt.Fprintf(s.w, "id: %d\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// comment writes an SSE comment line — the heartbeat.
func (s *sseWriter) comment(text string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// streamDynamics runs dynamics emitting each round as an SSE event:
//
//	id: <round>
//	event: round
//	data: api.RoundTrace
//
// followed by a terminal `done` event carrying the api.DynamicsResult
// summary (Trace omitted — the rounds already streamed), or an `error`
// event carrying the api.Error. Heartbeat comment lines are emitted
// every Config.HeartbeatEvery while rounds are slow.
//
// Resume: a reconnecting client sends the standard Last-Event-ID
// header (or DynamicsRequest.From); recorded rounds >= from replay
// from the session's in-memory trace window before new rounds run.
// Cancellation (client disconnect) stops the run at the next round
// boundary; applied moves are already durable, so the resumed run
// continues exactly where the trace ends.
func (s *Server) streamDynamics(w http.ResponseWriter, r *http.Request, sess *Session, req api.DynamicsRequest) {
	from := req.From
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		id, err := strconv.Atoi(lei)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Errorf("serve: Last-Event-ID %q: want a round number", lei))
			return
		}
		from = id + 1
	}
	if from < 0 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("serve: from must be >= 0, got %d", from))
		return
	}
	// Pre-validate the resume point before committing to SSE headers,
	// so a stale cursor gets a plain 400 envelope. The window can
	// still slide before the run takes the session lock; that rare
	// race surfaces as an SSE error event instead.
	if from > 0 {
		base, _, err := sess.TraceWindow()
		if err != nil {
			writeErr(w, err)
			return
		}
		if from < base {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Errorf("serve: resume round %d predates the recorded trace (window starts at round %d)", from, base))
			return
		}
	}
	sw, ok := newSSEWriter(w)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal,
			fmt.Errorf("serve: response writer does not support streaming"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	sw.fl.Flush()

	// The ResponseWriter dies with the handler, so the return path must
	// wait the heartbeat goroutine out, not just signal it.
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(s.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-t.C:
				sw.comment("hb") //nolint:errcheck // a dead conn cancels via ctx
			}
		}
	}()
	defer func() {
		close(hbDone)
		hbWG.Wait()
	}()

	ctx := r.Context()
	rep, err := sess.StreamStep(req.Rounds, from, func(rt api.RoundTrace) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return sw.event(api.StreamEventRound, rt.Round, rt)
	})
	s.m.Rebalance(sess.ID())
	if err != nil {
		if errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return // client gone; nothing to tell it
		}
		status, code := errToAPI(err)
		// SSE is committed to 200; the code travels in the event.
		_ = status
		sw.event(api.StreamEventError, -1, api.ErrorEnvelope{Err: api.Error{Code: code, Message: err.Error()}}) //nolint:errcheck
		return
	}
	// Rounds already streamed; done carries the summary only.
	rep.Trace = nil
	sw.event(api.StreamEventDone, -1, rep) //nolint:errcheck
}
