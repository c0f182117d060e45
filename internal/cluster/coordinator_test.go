package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"wlq/internal/core/pattern"
)

// stubWorker answers worker requests in-process through the coordinator's
// Transport seam: "ok" replies with a well-formed empty answer, "fail"
// refuses the connection, "hang" holds the request until its context ends.
type stubWorker struct {
	mu    sync.Mutex
	mode  string
	owned int
}

func (s *stubWorker) set(mode string) {
	s.mu.Lock()
	s.mode = mode
	s.mu.Unlock()
}

func (s *stubWorker) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	mode := s.mode
	s.mu.Unlock()
	switch mode {
	case "fail":
		return nil, errors.New("connection refused")
	case "hang":
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	body, err := json.Marshal(WorkerQueryResponse{WIDsOwned: s.owned})
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    req,
	}, nil
}

// TestClusterChaosCancelledProbeReleasesBreaker is the regression for a
// half-open probe whose query is cancelled: the probe must give its slot
// back, or the breaker stays half-open and skips the worker on every later
// query until restart.
func TestClusterChaosCancelledProbeReleasesBreaker(t *testing.T) {
	clk := installClock(t)
	wids := []uint64{1, 2, 3, 4}
	stub := &stubWorker{mode: "fail", owned: len(wids)}
	c, err := New(Config{
		Workers:          []string{"http://w0"},
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Transport:        stub,
		Sleep:            func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := pattern.MustParse("A -> B")
	run := func(ctx context.Context) (*Fanout, error) {
		_, _, fan, err := c.Execute(ctx, "log", plan, ExecOptions{WIDs: wids}, nil)
		return &fan, err
	}

	// One failure opens the breaker (threshold 1).
	if _, err := run(context.Background()); err == nil {
		t.Fatal("query against a refusing worker succeeded")
	}
	if got := c.Health()[0].Breaker; got != "open" {
		t.Fatalf("breaker %s after the failure, want open", got)
	}

	// Past the cooldown the next query is the half-open probe; its caller
	// gives up before the worker answers.
	clk.advance(time.Minute)
	stub.set("hang")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := run(ctx); err == nil {
		t.Fatal("cancelled probe query succeeded")
	}

	// The worker is healthy again: the next query probes it and succeeds.
	stub.set("ok")
	clk.advance(time.Hour)
	fan, err := run(context.Background())
	if err != nil {
		t.Fatalf("query after the abandoned probe: %v (per-worker %+v)", err, fan.PerWorker)
	}
	if fan.Skipped != 0 || fan.Succeeded != 1 {
		t.Fatalf("fan-out %+v, want the worker probed and merged", fan)
	}
	if got := c.Health()[0].Breaker; got != "closed" {
		t.Fatalf("breaker %s after a successful probe, want closed", got)
	}
}
