package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The serve crash suite runs `bbncg serve` as a real subprocess (the
// test binary re-executing main, see TestMain in crash_test.go),
// SIGKILLs it mid-session, restarts it on the same store directory, and
// requires the replayed session to answer byte-identically.

// lockedBuffer collects subprocess stderr: the exec copier goroutine
// writes while the test reads, so both sides take the lock.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// serveProc is one live `bbncg serve` subprocess.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *lockedBuffer
}

// startServe launches the server on a fresh port over dir and waits for
// the "listening on" line.
func startServe(t *testing.T, dir string, extra ...string) *serveProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-out", dir}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "BBNCG_REEXEC=1")
	pr, pw := io.Pipe()
	saved := &lockedBuffer{}
	// saved first: the scanner below may hand back the address before
	// the pipe write returns, and the caller then reads saved at once.
	cmd.Stderr = io.MultiWriter(saved, pw)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: saved}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addrc <- strings.TrimSpace(addr)
				break
			}
		}
		io.Copy(io.Discard, pr) // keep draining so the child never blocks
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server did not report its address; stderr:\n%s", saved.String())
	}
	return p
}

// api drives one JSON request, failing the test on transport errors and
// returning the status plus raw body (the byte-identity handle).
func (p *serveProc) api(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, p.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// sessionAnswers snapshots everything the replay contract promises:
// the full profile, every player's best response, and the welfare — as
// raw response bytes, so "byte-identical" means exactly that.
func sessionAnswers(t *testing.T, p *serveProc, id string, n int) []byte {
	t.Helper()
	var out bytes.Buffer
	code, raw := p.api(t, "GET", "/v1/sessions/"+id+"?arcs=1", nil)
	if code != 200 {
		t.Fatalf("info: %d %s", code, raw)
	}
	// The replayed flag legitimately differs across a restart; strip it
	// from the comparison without disturbing anything else.
	var info map[string]json.RawMessage
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	delete(info, "replayed")
	canon, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(canon)
	for u := 0; u < n; u++ {
		code, raw := p.api(t, "GET", fmt.Sprintf("/v1/sessions/%s/bestresponse?player=%d", id, u), nil)
		if code != 200 {
			t.Fatalf("bestresponse %d: %d %s", u, code, raw)
		}
		// Memo-vs-computed is performance metadata, not an answer.
		raw = bytes.ReplaceAll(raw, []byte(`,"memo":true`), nil)
		out.Write(raw)
	}
	code, raw = p.api(t, "GET", "/v1/sessions/"+id+"/welfare", nil)
	if code != 200 {
		t.Fatalf("welfare: %d %s", code, raw)
	}
	out.Write(raw)
	return out.Bytes()
}

// TestServeCrashReplay is the serve acceptance test: create a session,
// mutate it through rewires and dynamics, SIGKILL the server with no
// warning, restart it on the same directory, and require the replayed
// session to produce byte-identical answers.
func TestServeCrashReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	// Anchor every 3 mutations so the kill lands between anchors and
	// replay exercises anchor + trailing rewires.
	p := startServe(t, dir, "-anchor", "3")

	const n = 8
	create := map[string]any{
		"id":    "crashme",
		"graph": map[string]any{"kind": "random", "n": n, "b": 2, "seed": 11},
	}
	if code, raw := p.api(t, "POST", "/v1/sessions", create); code != 201 {
		t.Fatalf("create: %d %s", code, raw)
	}
	// A few dynamics moves plus explicit rewires leave the event log
	// with anchors and a live tail.
	if code, raw := p.api(t, "POST", "/v1/sessions/crashme/dynamics", map[string]any{"rounds": 2}); code != 200 {
		t.Fatalf("dynamics: %d %s", code, raw)
	}
	var eq struct {
		Stable  bool `json:"stable"`
		Witness *struct {
			Player   int   `json:"player"`
			Strategy []int `json:"strategy"`
		} `json:"witness"`
	}
	code, raw := p.api(t, "GET", "/v1/sessions/crashme/equilibrium", nil)
	if code != 200 {
		t.Fatalf("equilibrium: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &eq); err != nil {
		t.Fatal(err)
	}
	if !eq.Stable && eq.Witness != nil {
		body := map[string]any{"player": eq.Witness.Player, "strategy": eq.Witness.Strategy}
		if code, raw := p.api(t, "POST", "/v1/sessions/crashme/rewire", body); code != 200 {
			t.Fatalf("rewire: %d %s", code, raw)
		}
	}
	want := sessionAnswers(t, p, "crashme", n)

	// SIGKILL: no drain, no store close, no manifest flush.
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()

	p2 := startServe(t, dir, "-anchor", "3")
	if !strings.Contains(p2.stderr.String(), "1 session(s) replayed") {
		t.Fatalf("restart did not report the replay:\n%s", p2.stderr.String())
	}
	got := sessionAnswers(t, p2, "crashme", n)
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed answers differ\n want: %s\n got:  %s", want, got)
	}

	// The replayed session stays live: it accepts further mutations.
	if code, raw := p2.api(t, "POST", "/v1/sessions/crashme/dynamics", map[string]any{"rounds": 50}); code != 200 {
		t.Fatalf("dynamics after replay: %d %s", code, raw)
	}
}

// SIGTERM drains the server: in-flight handling completes, the store
// manifest is flushed, and the process exits 0 with the drain notice.
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	p := startServe(t, dir)
	if code, raw := p.api(t, "POST", "/v1/sessions", map[string]any{"id": "drainme", "graph": map[string]any{"kind": "cycle", "n": 5}}); code != 201 {
		t.Fatalf("create: %d %s", code, raw)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v\nstderr:\n%s", err, p.stderr.String())
	}
	if !strings.Contains(p.stderr.String(), "drained, store flushed") {
		t.Fatalf("no drain notice:\n%s", p.stderr.String())
	}
	// The drained store replays cleanly.
	p2 := startServe(t, dir)
	if code, raw := p2.api(t, "GET", "/v1/sessions/drainme", nil); code != 200 {
		t.Fatalf("session lost across graceful shutdown: %d %s", code, raw)
	}
}

// SIGTERM mid-sweep stops dispatch, flushes the store, exits 5, and the
// interrupted sweep resumes to byte-identical output.
func TestSweepInterruptExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	want := directOutput(t, "conn")
	dir := t.TempDir()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-out", dir, "conn")
	// Slow every evaluation down so the signal reliably lands mid-sweep.
	cmd.Env = append(os.Environ(), "BBNCG_REEXEC=1", "BBNCG_FAULTS=runner.eval=delay:300ms@*")
	var outb, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outb, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 5 {
		t.Fatalf("interrupted sweep: err=%v stderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "continue with -resume") {
		t.Fatalf("no resume hint:\n%s", errb.String())
	}

	res := runBBNCG(t, "", "-out", dir, "-resume", "conn")
	if res.code != 0 {
		t.Fatalf("resume exited %d\nstderr:\n%s", res.code, res.stderr)
	}
	if res.stdout != want {
		t.Fatal("resumed output is not byte-identical")
	}
	if !strings.Contains(res.stderr, "served from") {
		t.Fatalf("resume summary missing:\n%s", res.stderr)
	}
}
