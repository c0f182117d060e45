package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
	"wlq/internal/resilience"
	"wlq/internal/shard"
)

// Coordinator defaults.
const (
	// DefaultWorkerTimeout bounds one worker request attempt.
	DefaultWorkerTimeout = 5 * time.Second
	// DefaultMaxAttempts is the request attempt cap per worker per query
	// (1 initial try + retries). Networks fail transiently far more often
	// than in-process evaluation does, but each retry holds the client's
	// latency budget, so the default stays low.
	DefaultMaxAttempts = 2
	// DefaultProbeInterval paces the background worker health probes.
	DefaultProbeInterval = 5 * time.Second
	// DefaultMaxTraceSpans caps the span subtree one worker may return on a
	// traced query. Big enough for any realistic plan tree (spans mirror
	// plan nodes, not instances), small enough that a fleet of subtrees
	// cannot balloon a flight-recorder capture.
	DefaultMaxTraceSpans = 2048
)

// Config tunes a coordinator. Workers is required; every other zero field
// resolves to a sensible default.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:8080"). The
	// URLs are also the ring identities: placement depends on nothing else.
	Workers []string
	// HashReplicas is the virtual-node count per worker on the consistent
	// hash ring (0 = DefaultHashReplicas).
	HashReplicas int
	// WorkerTimeout deadlines each worker request attempt
	// (0 = DefaultWorkerTimeout).
	WorkerTimeout time.Duration
	// MaxAttempts caps request attempts per worker per query, the first try
	// included (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failed attempts (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay
	// (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// HedgeAfter, when positive, duplicates a worker request that has not
	// answered within the delay and takes whichever response lands first —
	// straggler insurance against a slow connection or a stalled accept
	// queue. The hedge goes to the same worker (wids live on exactly one
	// node), so it cannot help a node that is down, only one that is slow.
	HedgeAfter time.Duration
	// Transport is the HTTP transport for worker requests (nil =
	// http.DefaultTransport). Chaos suites inject faultinject.FlakyRoundTripper
	// here to fail, slow or blackhole exact requests without killing
	// processes.
	Transport http.RoundTripper
	// Sleep waits out the backoff delay between attempts (nil = time.Sleep);
	// tests inject a recording no-op.
	Sleep func(time.Duration)
	// Rand draws the backoff jitter uniform in [0,1) (nil = math/rand).
	Rand func() float64
	// DisableTracePropagation turns off distributed tracing: no traceparent
	// header on worker requests, no span subtrees or cost tables in worker
	// responses. The zero value propagates whenever the query carries an
	// obs.Trace.
	DisableTracePropagation bool
	// MaxTraceSpans caps the span subtree each worker may return
	// (0 = DefaultMaxTraceSpans).
	MaxTraceSpans int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.HashReplicas <= 0 {
		c.HashReplicas = DefaultHashReplicas
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = DefaultWorkerTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.MaxTraceSpans <= 0 {
		c.MaxTraceSpans = DefaultMaxTraceSpans
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// workerState is one worker's long-lived coordinator-side state: the
// circuit breaker accumulating failure history across queries, and the
// latest health-probe verdict.
type workerState struct {
	name    string
	breaker *Breaker

	mu       sync.Mutex
	probed   bool // at least one probe has run
	healthy  bool
	probeErr string
}

// Stats is a snapshot of the coordinator's fan-out counters.
type Stats struct {
	// Fanouts counts distributed query executions.
	Fanouts uint64 `json:"fanouts"`
	// WorkerRequests counts HTTP requests issued to workers (hedges and
	// retries included); WorkerFailures those that errored.
	WorkerRequests uint64 `json:"worker_requests"`
	WorkerFailures uint64 `json:"worker_failures"`
	// WorkerRetries counts re-attempts after backoff.
	WorkerRetries uint64 `json:"worker_retries"`
	// Hedges counts duplicated straggler requests; HedgeWins those whose
	// duplicate answered first.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// WorkersSkipped counts per-query worker exclusions by an open breaker.
	WorkersSkipped uint64 `json:"workers_skipped"`
}

// Coordinator fans queries out to the worker fleet and merges the answers.
// It is safe for concurrent use and meant to be long-lived: per-worker
// breakers and health state persist across queries.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	client  *http.Client
	workers []*workerState
	hists   map[string]*obs.Histogram

	fanouts        atomic.Uint64
	workerRequests atomic.Uint64
	workerFailures atomic.Uint64
	workerRetries  atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	workersSkipped atomic.Uint64
}

// New builds a coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, w := range cfg.Workers {
		if w == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	workers := make([]*workerState, len(cfg.Workers))
	hists := make(map[string]*obs.Histogram, len(cfg.Workers))
	for i, name := range cfg.Workers {
		workers[i] = &workerState{
			name:    name,
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			healthy: true, // optimistic until a probe or request says otherwise
		}
		hists[name] = obs.NewHistogram(DurationBucketsUS)
	}
	return &Coordinator{
		cfg:  cfg,
		ring: NewRing(cfg.Workers, cfg.HashReplicas),
		// The per-attempt deadline rides the request context, not the
		// client, so hedges and probes can choose their own.
		client:  &http.Client{Transport: cfg.Transport},
		workers: workers,
		hists:   hists,
	}, nil
}

// Ring returns the placement ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Stats snapshots the fan-out counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Fanouts:        c.fanouts.Load(),
		WorkerRequests: c.workerRequests.Load(),
		WorkerFailures: c.workerFailures.Load(),
		WorkerRetries:  c.workerRetries.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		WorkersSkipped: c.workersSkipped.Load(),
	}
}

// Fanout summarizes one distributed execution for the flight recorder and
// the response-side accounting.
type Fanout struct {
	// Workers is the number of workers owning at least one wid this query.
	Workers int `json:"workers"`
	// Attempted counts workers that received at least one request; Succeeded
	// those whose answer is in the merged result; Failed those excluded
	// after exhausting attempts; Skipped those excluded by an open breaker.
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
	// Hedged counts straggler requests duplicated; Retries re-attempts;
	// HedgeWins hedges whose duplicate answered first.
	Hedged    int `json:"hedged"`
	Retries   int `json:"retries"`
	HedgeWins int `json:"hedge_wins"`
	// PerWorker details every worker contacted (or breaker-skipped) this
	// query, in fleet order.
	PerWorker []WorkerCall `json:"per_worker,omitempty"`
	// TraceID is the propagated cross-process trace id ("" when the query
	// was untraced or propagation is disabled).
	TraceID string `json:"trace_id,omitempty"`
	// CostTable is the fleet-wide Lemma 1 table: the per-worker tables of
	// every merged answer summed row-by-row (nil when untraced).
	CostTable []obs.CostRow `json:"-"`
}

// WorkerCall is one worker's outcome within a single distributed query —
// the structured per-worker detail the flight recorder captures.
type WorkerCall struct {
	// Worker is the worker base URL; WIDs how many wids it owned.
	Worker string `json:"worker"`
	WIDs   int    `json:"wids"`
	// Status is "ok", "failed", or "skipped" (breaker).
	Status string `json:"status"`
	// Attempts counts requests sent (hedges excluded); Retries re-attempts
	// after backoff; Hedges duplicated straggler requests; HedgeWon whether
	// a hedge's answer was the one used.
	Attempts int  `json:"attempts"`
	Retries  int  `json:"retries"`
	Hedges   int  `json:"hedges"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	// BreakerSkip marks a worker excluded without any request by an open
	// circuit breaker.
	BreakerSkip bool `json:"breaker_skip,omitempty"`
	// ElapsedUS is the worker-reported evaluation wall time (0 on failure).
	ElapsedUS int64 `json:"elapsed_us"`
	// Incidents is how many incidents the worker contributed; TraceSpans
	// how many spans its returned subtree carried.
	Incidents  int `json:"incidents"`
	TraceSpans int `json:"trace_spans,omitempty"`
	// Error is the terminal failure, when Status != "ok".
	Error string `json:"error,omitempty"`
}

// ExecOptions parameterizes one distributed execution.
type ExecOptions struct {
	// WIDs is the full ascending wid list of the log (the coordinator's
	// local index supplies it; placement partitions it over the ring).
	WIDs []uint64
	// Strategy optionally names the join implementation for the workers.
	Strategy string
	// Limit is the per-operator per-instance incident cap.
	Limit int
	// Budget is the whole query's budget; it is sliced per active worker.
	Budget resilience.Budget
}

// workerResult is one worker's terminal outcome within a query: the
// shard.Gather outcome plus the network-tier detail the Fanout reports.
type workerResult struct {
	shard.Outcome
	hedges    int
	hedgeWin  bool
	elapsedUS int64
	spanCount int
	costTable []obs.CostRow
}

// Execute evaluates the plan across the worker fleet: each worker owning
// wids gets one request (with retries, hedging and breaker admission) and
// the surviving answers merge through shard.Gather — byte-identical to a
// single-node evaluation when every worker answers.
//
// The returned error is non-nil only when the whole query is lost (context
// cancelled, or no worker produced an answer). Otherwise the Completeness
// documents coverage exactly as the in-process executor does, with each
// excluded worker's wid set named by envelope and exact ranges.
func (c *Coordinator) Execute(ctx context.Context, logName string, plan pattern.Node, opts ExecOptions, qs *eval.QueryStats) (*incident.Set, *shard.Completeness, Fanout, error) {
	c.fanouts.Add(1)
	// Active workers: those owning at least one wid. Idle workers are not
	// contacted and not counted as shards.
	var fleet []shard.Shard
	for wi, wids := range c.ring.Assignments(opts.WIDs) {
		if len(wids) > 0 {
			fleet = append(fleet, shard.Shard{
				ID: wi, WIDs: wids, MinWID: wids[0], MaxWID: wids[len(wids)-1],
				Worker: c.workers[wi].name,
			})
		}
	}
	fan := Fanout{Workers: len(fleet)}

	req := WorkerQueryRequest{
		Log:      logName,
		Plan:     plan.String(),
		Ring:     c.ring.Workers(),
		Replicas: c.ring.Replicas(),
		Strategy: opts.Strategy,
		Limit:    opts.Limit,
		Budget:   ToBudgetDoc(opts.Budget.Slice(len(fleet))),
	}

	// Distributed tracing: mint (or reuse) the query's trace id and ask
	// workers to return their span trees and cost tables. The id travels on
	// a traceparent header per request; the request body only carries the
	// enable flag and the subtree cap.
	tr := obs.FromContext(ctx)
	traceID := ""
	if tr != nil && !c.cfg.DisableTracePropagation {
		traceID = tr.ID()
		req.Trace = true
		req.MaxTraceSpans = c.cfg.MaxTraceSpans
	}
	fan.TraceID = traceID
	scatter := tr.StartSpan("scatter")
	scatter.SetAttr("workers", len(fleet))
	if traceID != "" {
		scatter.SetAttr("trace_id", traceID)
	}

	results := make([]workerResult, len(fleet))
	set, comp, err := shard.Gather(ctx, scatter, fleet, func(i int) shard.Outcome {
		results[i] = c.runWorker(ctx, scatter, traceID, fleet[i].ID, req, len(fleet[i].WIDs))
		return results[i].Outcome
	}, qs)

	fan.Attempted, fan.Succeeded = comp.Attempted, comp.Succeeded
	fan.Failed, fan.Skipped, fan.Retries = comp.Failed, comp.Skipped, comp.Retries
	var tables [][]obs.CostRow
	fan.PerWorker = make([]WorkerCall, 0, len(fleet))
	for i, r := range results {
		fan.Hedged += r.hedges
		if r.hedgeWin {
			fan.HedgeWins++
		}
		call := WorkerCall{
			Worker:      fleet[i].Worker,
			WIDs:        len(fleet[i].WIDs),
			Status:      "ok",
			Attempts:    r.Attempts,
			Retries:     r.Retries,
			Hedges:      r.hedges,
			HedgeWon:    r.hedgeWin,
			BreakerSkip: r.Skipped,
			ElapsedUS:   r.elapsedUS,
			Incidents:   len(r.Incidents),
			TraceSpans:  r.spanCount,
		}
		switch {
		case r.Skipped:
			call.Status, call.Error = "skipped", r.Err.Error()
		case r.Err != nil:
			call.Status, call.Error = "failed", r.Err.Error()
		default:
			tables = append(tables, r.costTable)
		}
		fan.PerWorker = append(fan.PerWorker, call)
	}
	// Only merged answers feed the fleet table: a failed worker's partial
	// measurements would skew the measured-vs-predicted comparison.
	fan.CostTable = obs.AggregateCostTables(tables...)
	return set, comp, fan, err
}

// runWorker drives one worker through breaker admission, the retry loop and
// hedging. Everything the coordinator does for the worker is recorded as
// spans under a per-worker span: a queue-wait span (goroutine scheduling +
// admission + marshal before the first transport write), sibling transport
// spans per request with attempt/hedge annotations, backoff spans between
// retries, and a breaker-skip span when the breaker rejects the worker
// outright. The winning response's own span subtree is grafted under the
// transport span that carried it.
func (c *Coordinator) runWorker(ctx context.Context, parent *obs.Span, traceID string, wi int, req WorkerQueryRequest, assigned int) workerResult {
	w := c.workers[wi]
	wsp := parent.StartChild("worker " + w.name)
	defer wsp.End()
	wsp.SetAttr("wids", assigned)
	qw := wsp.StartChild("queue-wait")
	if !w.breaker.Allow() {
		qw.End()
		c.workersSkipped.Add(1)
		sk := wsp.StartChild("breaker-skip")
		sk.SetAttr("breaker", "open")
		sk.End()
		wsp.SetAttr("status", "skipped")
		err := fmt.Errorf("circuit breaker open for worker %s", w.name)
		return workerResult{Outcome: shard.Outcome{Skipped: true, Err: err}}
	}
	req.Self = w.name
	body, err := json.Marshal(req)
	if err != nil {
		qw.End()
		w.breaker.Abandon()
		wsp.SetAttr("status", "failed")
		err = fmt.Errorf("encode worker request: %w", err)
		return workerResult{Outcome: shard.Outcome{Attempts: 1, Err: err}}
	}
	var res workerResult
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		qw.End() // idempotent; first attempt ends the queue wait

		resp, winner, hedged, hedgeWon, err := c.call(ctx, wsp, attempt, traceID, w.name, body)
		if hedged {
			res.hedges++
		}
		if hedgeWon {
			res.hedgeWin = true
		}
		if err == nil && resp.WIDsOwned != assigned {
			// The worker's ring view disagrees with ours: merging its answer
			// would silently mis-cover the log. Deterministic, so never retried.
			err = nonRetryable(fmt.Errorf(
				"ring mismatch: worker evaluated %d wids, coordinator assigned %d (membership or replica skew)",
				resp.WIDsOwned, assigned))
			winner.SetAttr("error", err.Error())
			resp = nil
		}
		if err == nil {
			winner.SetAttr("incidents", len(resp.Incidents))
			if traceID != "" && resp.TraceID != "" && resp.TraceID != traceID {
				// Same spirit as the WIDsOwned echo: the worker answered under
				// a different trace context than we sent. Annotate, keep the
				// answer (trace skew is an observability fault, not a data one).
				winner.SetAttr("trace_id_mismatch", resp.TraceID)
			}
			if resp.Spans != nil {
				res.spanCount = obs.CountSpans(resp.Spans)
				obs.Graft(winner, resp.Spans, winner.StartUS)
			}
			w.breaker.Success()
			res.Incidents = ToIncidents(resp.Incidents)
			res.Instances = resp.Instances
			res.elapsedUS = resp.ElapsedUS
			res.costTable = resp.CostTable
			res.Err = nil
			wsp.SetAttr("status", "ok")
			return res
		}
		res.Err = err
		wsp.SetAttr("status", "failed")
		wsp.SetAttr("error", err.Error())
		// The parent context dying is not a worker fault: don't trip the
		// breaker for it, and don't retry into a cancelled query. A probe
		// cancelled this way gives its half-open slot back.
		if ctx.Err() != nil {
			w.breaker.Abandon()
			return res
		}
		w.breaker.Failure()
		if !retryableErr(err) || attempt >= c.cfg.MaxAttempts || !w.breaker.Allow() {
			return res
		}
		res.Retries++
		c.workerRetries.Add(1)
		delay := backoffDelay(attempt, c.cfg.Rand())
		bsp := wsp.StartChild("backoff")
		bsp.SetAttr("delay_ms", delay.Milliseconds())
		bsp.SetAttr("next_attempt", attempt+1)
		c.cfg.Sleep(delay)
		bsp.End()
	}
}

// call performs one attempt against a worker: the primary request, plus —
// when HedgeAfter is set and the primary has not answered in time — one
// duplicate, with whichever lands first winning. The per-attempt timeout
// covers primary and hedge together. Primary and hedge each get their own
// transport span under wsp (siblings, annotated attempt/hedge); the span
// of the request whose result is used is returned so the caller can graft
// the worker's subtree under it. All span writes happen before call
// returns — abandoned requests' spans are closed here, never from their
// still-running goroutines.
func (c *Coordinator) call(ctx context.Context, wsp *obs.Span, attempt int, traceID, worker string, body []byte) (resp *WorkerQueryResponse, winner *obs.Span, hedged, hedgeWon bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	defer cancel()

	type result struct {
		resp  *WorkerQueryResponse
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	var primarySpan, hedgeSpan *obs.Span
	launch := func(isHedge bool) *obs.Span {
		sp := wsp.StartChild("transport")
		sp.SetAttr("attempt", attempt)
		header := ""
		if traceID != "" {
			spanID := obs.NewSpanID()
			sp.SetAttr("span_id", spanID)
			header = obs.FormatTraceparent(traceID, spanID)
		}
		if isHedge {
			sp.SetAttr("hedge", true)
		}
		go func() {
			r, err := c.post(actx, worker, body, header)
			ch <- result{resp: r, err: err, hedge: isHedge}
		}()
		return sp
	}
	primarySpan = launch(false)
	ended := make(map[*obs.Span]bool, 2)
	// abandon closes the span of a request still in flight when we stop
	// waiting for it (the other request already won); its goroutine will
	// drain into the buffered channel without touching the span again.
	abandon := func() {
		for _, sp := range []*obs.Span{primarySpan, hedgeSpan} {
			if sp != nil && !ended[sp] {
				sp.SetAttr("abandoned", true)
				sp.End()
			}
		}
	}

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	outstanding := 1
	var firstErr error
	firstErrSpan := primarySpan
	for {
		select {
		case r := <-ch:
			outstanding--
			spanOf := primarySpan
			if r.hedge {
				spanOf = hedgeSpan
			}
			if r.err != nil {
				spanOf.SetAttr("error", r.err.Error())
			}
			spanOf.End()
			ended[spanOf] = true
			if r.err == nil {
				if r.hedge {
					hedgeWon = true
					c.hedgeWins.Add(1)
				}
				abandon()
				return r.resp, spanOf, hedged, hedgeWon, nil
			}
			if firstErr == nil {
				firstErr = r.err
				firstErrSpan = spanOf
			}
			if outstanding == 0 {
				return nil, firstErrSpan, hedged, false, firstErr
			}
			// The other request (hedge or primary) is still out; wait for it.
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			c.hedges.Add(1)
			outstanding++
			hedgeSpan = launch(true)
		}
	}
}

// post issues one HTTP request to a worker and decodes the reply. The
// traceparent value, when non-empty, propagates the distributed trace
// context. Request duration feeds the per-worker latency histogram either
// way.
func (c *Coordinator) post(ctx context.Context, worker string, body []byte, traceparent string) (*WorkerQueryResponse, error) {
	c.workerRequests.Add(1)
	start := time.Now()
	defer func() {
		if h := c.hists[worker]; h != nil {
			h.Observe(time.Since(start))
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(worker, "/")+"/v1/worker/query", bytes.NewReader(body))
	if err != nil {
		c.workerFailures.Add(1)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		c.workerFailures.Add(1)
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		c.workerFailures.Add(1)
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 64<<10))
		var ed WorkerErrorDoc
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &ed) == nil && ed.Error != "" {
			msg = ed.Error
		}
		return nil, &WorkerHTTPError{Status: httpResp.StatusCode, Msg: msg, IncidentID: ed.IncidentID}
	}
	var wr WorkerQueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&wr); err != nil {
		c.workerFailures.Add(1)
		return nil, fmt.Errorf("decode worker response: %w", err)
	}
	return &wr, nil
}

// WorkerHTTPError is a worker reply with a non-200 status.
type WorkerHTTPError struct {
	Status int
	Msg    string
	// IncidentID is set when the worker recovered a panic while evaluating
	// (a 500 carrying the worker-side incident id).
	IncidentID string
}

// Error implements error.
func (e *WorkerHTTPError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.Status, e.Msg)
}

// nonRetryableError marks a deterministic failure the retry loop must not
// re-attempt.
type nonRetryableError struct{ err error }

func (e *nonRetryableError) Error() string { return e.err.Error() }
func (e *nonRetryableError) Unwrap() error { return e.err }

func nonRetryable(err error) error { return &nonRetryableError{err: err} }

// retryableErr classifies a worker attempt failure. Transport-level errors
// (refused, reset, attempt timeout) and 5xx/429 replies are transient and
// worth a backed-off retry. 4xx replies, ring mismatches and recovered
// evaluation panics (a 500 with an incident id) are deterministic — the
// same plan over the same wids would fail the same way.
func retryableErr(err error) bool {
	var nr *nonRetryableError
	if errors.As(err, &nr) {
		return false
	}
	var he *WorkerHTTPError
	if errors.As(err, &he) {
		if he.IncidentID != "" {
			return false
		}
		return he.Status >= 500 || he.Status == http.StatusTooManyRequests
	}
	return true
}

// WorkerHealth is one worker's live status for /readyz and metrics.
type WorkerHealth struct {
	// Worker is the worker's base URL.
	Worker string `json:"worker"`
	// Healthy is the latest probe verdict (true before any probe has run —
	// optimistic, so a coordinator without probing does not report a
	// healthy fleet as lost).
	Healthy bool `json:"healthy"`
	// Breaker is the worker's circuit-breaker state: closed, open, half-open.
	Breaker string `json:"breaker"`
	// Error is the latest probe failure, when unhealthy.
	Error string `json:"error,omitempty"`
}

// Health snapshots every worker's probe verdict and breaker state.
func (c *Coordinator) Health() []WorkerHealth {
	out := make([]WorkerHealth, len(c.workers))
	for i, w := range c.workers {
		w.mu.Lock()
		out[i] = WorkerHealth{
			Worker:  w.name,
			Healthy: w.healthy,
			Breaker: w.breaker.State().String(),
			Error:   w.probeErr,
		}
		w.mu.Unlock()
	}
	return out
}

// Lost lists workers currently considered lost: probe-unhealthy, or with a
// not-closed circuit breaker. Feeds degraded readiness.
func (c *Coordinator) Lost() []string {
	var lost []string
	for _, w := range c.workers {
		w.mu.Lock()
		unhealthy := w.probed && !w.healthy
		w.mu.Unlock()
		if unhealthy || w.breaker.State() != BreakerClosed {
			lost = append(lost, w.name)
		}
	}
	return lost
}

// OpenBreakers counts workers whose breaker is not closed.
func (c *Coordinator) OpenBreakers() int {
	open := 0
	for _, w := range c.workers {
		if w.breaker.State() != BreakerClosed {
			open++
		}
	}
	return open
}

// ProbeOnce health-checks every worker (GET /healthz, bounded by the worker
// timeout) and records the verdicts. It returns the healthy count. Exposed
// separately from StartProbing so tests and callers can probe
// deterministically.
func (c *Coordinator) ProbeOnce(ctx context.Context) int {
	var wg sync.WaitGroup
	healthy := atomic.Int32{}
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			err := c.probe(ctx, w.name)
			w.mu.Lock()
			w.probed = true
			w.healthy = err == nil
			if err != nil {
				w.probeErr = err.Error()
			} else {
				w.probeErr = ""
				healthy.Add(1)
			}
			w.mu.Unlock()
		}(w)
	}
	wg.Wait()
	return int(healthy.Load())
}

// probe is one GET /healthz round trip.
func (c *Coordinator) probe(ctx context.Context, worker string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet,
		strings.TrimSuffix(worker, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// StartProbing launches the background probe loop at the given interval
// (<= 0 means DefaultProbeInterval) until ctx is cancelled.
func (c *Coordinator) StartProbing(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.ProbeOnce(ctx)
			}
		}
	}()
}
