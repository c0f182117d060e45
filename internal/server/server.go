// Package server implements wlq-serve: a long-running HTTP query service
// over workflow logs. It loads logs once at startup, builds the per-wid
// eval.Index for each, and serves pattern queries with plan/result caching.
//
// Endpoints:
//
//	POST /v1/query    parse → rewrite → parallel evaluation (JSON in/out);
//	                  "trace": true adds the span tree and Lemma 1 cost table
//	GET  /v1/explain  the optimizer's rewrite trace and cost estimates
//	GET  /v1/logs     loaded-log inventory and validity status
//	GET  /metrics     service counters (JSON; ?format=prometheus for text exposition)
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 until a log is loaded)
//	GET  /debug/pprof profiling handlers (Config.EnablePprof)
//
// The Index is immutable after load, so concurrent queries share it without
// locks and cached result sets never need invalidation. The result cache is
// an LRU keyed on (log, canonicalized pattern, limit): queries equal modulo
// associativity and commutativity (Theorems 2–3) share one entry.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/flightrec"
	"wlq/internal/ingest"
	"wlq/internal/obs"
	"wlq/internal/resilience"
	"wlq/internal/shard"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// Defaults for the zero Config.
const (
	DefaultCacheSize = 256
	DefaultTimeout   = 10 * time.Second
	DefaultMaxBody   = 1 << 20 // 1 MiB
	// DefaultMaxInFlight is the admission controller's default concurrency
	// bound: generous next to GOMAXPROCS evaluation workers, tight enough
	// that a burst of Lemma 1 worst cases sheds instead of queueing without
	// bound.
	DefaultMaxInFlight = 64
	// DefaultFlightRecorderSize is the flight recorder's per-ring capacity.
	DefaultFlightRecorderSize = flightrec.DefaultSize
)

// Config tunes the service. The zero value serves with merge joins,
// GOMAXPROCS workers, a 256-entry cache, a 10s per-request timeout and a
// 1 MiB request-body cap.
type Config struct {
	// Workers is the per-query evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the maximum number of cached (plan, result) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// Timeout bounds each request's evaluation time (0 = DefaultTimeout).
	// Requests may lower it per call, never raise it.
	Timeout time.Duration
	// MaxBodyBytes caps the size of request bodies (0 = DefaultMaxBody).
	MaxBodyBytes int64
	// Strategy is the default join implementation (0 = merge).
	Strategy eval.Strategy
	// Logger, when non-nil, enables structured request logging (one Info
	// line per request) and the slow-query log. Nil disables both.
	Logger *slog.Logger
	// SlowQuery, when positive, logs a Warn line (and bumps the
	// slow_queries counter) for every query slower than the threshold.
	SlowQuery time.Duration
	// EnablePprof exposes the GET /debug/pprof/* profiling handlers.
	EnablePprof bool
	// MaxInFlight bounds concurrently served queries (admission control):
	// arrivals beyond the bound are shed immediately with 429 and a
	// Retry-After header instead of queueing behind a saturated worker
	// pool. 0 means DefaultMaxInFlight; negative disables shedding.
	MaxInFlight int
	// Budget caps each query evaluation's resources (comparisons, produced
	// incidents, wall time, result bytes); zero fields are unlimited. A
	// tripped budget maps to HTTP 422 with the partial per-operator cost
	// table attached. See docs/RESILIENCE.md for semantics and tuning.
	Budget resilience.Budget
	// MaxPredictedCost, when positive, is the pre-flight admission ceiling:
	// a query whose optimized plan's Lemma 1 cost estimate (rewrite
	// cost model) exceeds it is rejected with 422 before any evaluation
	// starts — the cost model tells us in advance which queries are
	// dangerous, so the worst ones never consume a worker at all.
	MaxPredictedCost float64
	// Loader re-reads a log's source spec for hot reload (POST /v1/reload,
	// and SIGHUP in cmd/wlq-serve). Nil disables reloading. The CLI passes
	// wlq.OpenLog.
	Loader func(spec string) (*wlog.Log, error)
	// Shards, when non-zero, evaluates every query shard-by-shard: the log
	// is partitioned into this many wid-range failure domains (negative =
	// GOMAXPROCS), each run once with its own budget slice and panic
	// isolation. A shard lost to a fault is excluded from the result
	// instead of failing the query; the response reports coverage via its
	// completeness object (partial results are 206 when the request opts in
	// with "partial": true, 502 otherwise). 0 disables sharding (the
	// single-domain paths).
	Shards int
	// FlightRecorderSize is the query flight recorder's per-ring capacity:
	// the recorder keeps that many recent executions plus that many notable
	// (slow or failed) ones. 0 means DefaultFlightRecorderSize; negative
	// disables the recorder (and its GET /v1/queries endpoints).
	FlightRecorderSize int
	// WorkerMode serves the cluster worker endpoint (POST /v1/worker/query):
	// this instance evaluates coordinator-shipped plans against the wid set
	// its ring view assigns it. Worker traffic bypasses rewrite, caching and
	// the flight recorder — the coordinator owns the query lifecycle.
	WorkerMode bool
	// Cluster, when non-nil, runs this server as a cluster coordinator:
	// every query fans out over HTTP to the configured workers and the
	// answers merge through the same completeness contract as in-process
	// shards. Takes precedence over Shards (the network tier IS the shard
	// tier then). Set it via cmd/wlq-serve's -workers flag or directly in
	// tests; cluster.Config.Transport is the fault-injection seam.
	Cluster *cluster.Config
	// ProbeInterval paces the coordinator's background worker health probes
	// (0 = cluster.DefaultProbeInterval; negative disables probing, for
	// tests that drive ProbeOnce deterministically).
	ProbeInterval time.Duration
	// Ingest enables durable live ingestion: every registered log accepts
	// POST /v1/logs/{name}/append, each accepted record is written to a
	// per-log write-ahead log before it touches the in-memory index, and
	// startup/reload replay the WAL so acknowledged records survive a
	// process kill. Incompatible with WorkerMode and Cluster (a live log's
	// contents would silently diverge across the fleet). Shards still
	// applies: the partition is taken per query under the monitor's read
	// lock, so it always covers every applied record. See docs/DURABILITY.md.
	Ingest bool
	// WALDir is the root directory for WAL segments; each log gets its own
	// subdirectory named after (a sanitized form of) the log name. Required
	// when Ingest is set.
	WALDir string
	// FsyncPolicy governs when WAL appends are flushed to stable storage
	// (zero value = wal.PolicyAlways: acknowledged means on disk).
	FsyncPolicy wal.Policy
	// FsyncInterval paces the background flush under wal.PolicyInterval
	// (0 = wal.DefaultFsyncInterval).
	FsyncInterval time.Duration
	// WALSegmentBytes is the rotation threshold per WAL segment file
	// (0 = wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// IngestQueue bounds concurrently admitted append requests per log;
	// arrivals beyond it are shed with 429 + Retry-After. 0 means
	// DefaultIngestQueue; negative disables the bound.
	IngestQueue int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBody
	}
	if c.Strategy == 0 {
		c.Strategy = eval.StrategyMerge
	}
	return c
}

// logEntry is one loaded (generation of a) log with its prebuilt index. An
// entry is immutable: hot reload replaces the pointer wholesale, so
// in-flight queries keep the consistent snapshot they resolved at lookup
// time.
type logEntry struct {
	name   string
	source string
	log    *wlog.Log
	ix     *eval.Index
	valid  bool
	reason string // validation error text when !valid
	gen    uint64 // reload generation; part of the result-cache key
	// live is the log's durable ingest coordinator (nil unless
	// Config.Ingest). Unlike the rest of the entry it is long-lived shared
	// state: a hot reload rebases the SAME coordinator onto the fresh
	// snapshot (replaying its WAL on top) instead of replacing it, so the
	// WAL file handle and watermark survive reloads. For a live entry, ix is
	// the coordinator's monitor index, and the query path brackets every
	// read of it with the monitor's RLock.
	live *ingest.Coordinator
}

// Server is the query service. Safe for concurrent use; logs are loaded
// before serving (AddLog) and replaced atomically by ReloadLogs afterwards.
type Server struct {
	cfg        Config
	admission  *resilience.Admission
	mu         sync.RWMutex
	logs       map[string]*logEntry
	names      []string          // registration order, for stable /v1/logs listings
	quarantine map[string]string // log name -> last reload error (entry kept at last-good)
	cache      *lru
	metrics    *metrics

	// coord is the cluster coordinator (nil for single-node service). It is
	// long-lived shared state: per-worker breakers and health verdicts
	// persist across queries and hot reloads.
	coord *cluster.Coordinator

	// flight is the query flight recorder (nil when disabled by a negative
	// Config.FlightRecorderSize). It is append-only shared state, never
	// replaced, so captures from before and after a hot reload coexist,
	// distinguished by their generation field.
	flight *flightrec.Recorder

	// reloadMu guards reloadCall, the single-flight slot for ReloadLogs:
	// concurrent reload requests (SIGHUP racing POST /v1/reload) join the
	// in-progress pass instead of starting their own.
	reloadMu   sync.Mutex
	reloadCall *reloadCall
}

// New creates a Server with no logs loaded. It panics on an invalid
// Config.Cluster (no workers, or duplicate worker URLs): that is a
// construction-time configuration error, and cmd/wlq-serve validates the
// flag before building the Config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	capacity := cfg.MaxInFlight
	if capacity == 0 {
		capacity = DefaultMaxInFlight
	}
	var flight *flightrec.Recorder
	if cfg.FlightRecorderSize >= 0 {
		flight = flightrec.New(cfg.FlightRecorderSize) // 0 resolves to the default size
	}
	var coord *cluster.Coordinator
	if cfg.Cluster != nil {
		var err error
		if coord, err = cluster.New(*cfg.Cluster); err != nil {
			panic(fmt.Sprintf("server: invalid cluster config: %v", err))
		}
	}
	// Live ingestion mutates a single node's log; worker and coordinator
	// roles assume every node serves an identical immutable snapshot.
	// cmd/wlq-serve validates the flags; this is the same construction-time
	// backstop as an invalid cluster config.
	if cfg.Ingest && (cfg.WorkerMode || cfg.Cluster != nil) {
		panic("server: Config.Ingest is incompatible with WorkerMode and Cluster")
	}
	return &Server{
		cfg:        cfg,
		admission:  resilience.NewAdmission(capacity), // nil (unlimited) when negative
		logs:       make(map[string]*logEntry),
		quarantine: make(map[string]string),
		cache:      newLRU(cfg.CacheSize),
		metrics:    newMetrics(),
		coord:      coord,
		flight:     flight,
	}
}

// Coordinator returns the cluster coordinator, or nil for a single-node
// server. Tests use it to drive health probes deterministically
// (cluster.Coordinator.ProbeOnce); cmd/wlq-serve only needs StartClusterProbing.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// StartClusterProbing launches the coordinator's background worker health
// probes until ctx is cancelled. No-op on a single-node server or with a
// negative Config.ProbeInterval (tests probe explicitly instead).
func (s *Server) StartClusterProbing(ctx context.Context) {
	if s.coord == nil || s.cfg.ProbeInterval < 0 {
		return
	}
	s.coord.StartProbing(ctx, s.cfg.ProbeInterval)
}

// AddLog registers a log under a name and builds its index. source is a
// human-readable origin (file path or generator spec) echoed by /v1/logs.
// The log's Definition 2 validity is checked and reported, but even an
// invalid log is served (the index tolerates it; /v1/logs flags it).
func (s *Server) AddLog(name, source string, l *wlog.Log) error {
	if name == "" {
		return errors.New("server: empty log name")
	}
	if l == nil {
		return fmt.Errorf("server: nil log %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.logs[name]; dup {
		return fmt.Errorf("server: duplicate log name %q", name)
	}
	e := &logEntry{name: name, source: source, log: l, valid: true}
	if err := l.Validate(); err != nil {
		e.valid, e.reason = false, err.Error()
	}
	if s.cfg.Ingest {
		// A live log must start from a clean snapshot: the WAL replays on
		// top of it and the monitor enforces Definition 2 from record one,
		// so the tolerate-and-flag posture of static serving does not apply.
		if !e.valid {
			return fmt.Errorf("server: log %q cannot accept appends: %s", name, e.reason)
		}
		// Distinct names can sanitize to one WAL directory ("a b", "a_b");
		// two coordinators must never append to and replay the same WAL.
		dir := sanitizeWALName(name)
		for _, other := range s.logs {
			if other.live != nil && sanitizeWALName(other.name) == dir {
				return fmt.Errorf("server: log %q: WAL directory %q is already held by log %q",
					name, dir, other.name)
			}
		}
		coord, rec, err := s.openIngest(name, l)
		if err != nil {
			return fmt.Errorf("server: log %q: %w", name, err)
		}
		e.live = coord
		e.ix = coord.Monitor().Index()
		if s.cfg.Logger != nil && (rec.Records > 0 || rec.TornBytes > 0) {
			s.cfg.Logger.Info("wal recovered", "log", name,
				"records", rec.Records, "last_lsn", rec.LastLSN,
				"segments", rec.Segments, "torn_bytes", rec.TornBytes)
		}
	} else {
		e.ix = eval.NewIndex(l)
	}
	s.logs[name] = e
	s.names = append(s.names, name)
	return nil
}

// sharded reports whether queries run in in-process shards. A
// coordinator's failure domains are the workers; in-process shards on top
// would partition twice for no added isolation.
func (s *Server) sharded() bool {
	return s.cfg.Shards != 0 && s.coord == nil
}

// lookup resolves a log name; a single loaded log may be addressed with an
// empty name (the common one-log deployment).
func (s *Server) lookup(name string) (*logEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" && len(s.names) == 1 {
		return s.logs[s.names[0]], nil
	}
	e, ok := s.logs[name]
	if !ok {
		if name == "" {
			return nil, fmt.Errorf("log name required (loaded: %d logs)", len(s.names))
		}
		return nil, fmt.Errorf("unknown log %q", name)
	}
	return e, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/queries", s.handleFlightList)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleFlightGet)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/logs", s.handleLogs)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	if s.cfg.Ingest {
		mux.HandleFunc("POST /v1/logs/{name}/append", s.handleAppend)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.WorkerMode {
		mux.HandleFunc("POST /v1/worker/query", s.handleWorkerQuery)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Panic isolation wraps every handler: a panicking request becomes a
	// 500 with an incident id while the process keeps serving. Request
	// logging sits outermost so recovered panics are still logged with
	// their status code.
	h := s.recoverPanics(mux)
	if s.cfg.Logger != nil {
		return s.logRequests(h)
	}
	return h
}

// recoverPanics converts a handler panic into a 500 carrying an incident id
// (logged alongside the stack) instead of killing the connection — and, with
// the default http.Server behavior, filling the error log with stack traces.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and must keep its net/http semantics.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			pe := resilience.NewPanicError(v)
			s.metrics.panicsRecovered.Add(1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("panic recovered in handler",
					"incident_id", pe.IncidentID,
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(v),
					"stack", string(pe.Stack),
				)
			}
			writeJSON(w, http.StatusInternalServerError, errorDoc{
				Error:      "internal server error",
				IncidentID: pe.IncidentID,
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once at least one log is loaded
// and indexed (AddLog builds the index synchronously, so a registered log
// is a queryable log), 503 before that — load balancers keep the instance
// out of rotation until it can actually answer queries.
// A quarantined log (a reload that failed validation or loading; the
// last-good snapshot is still served) does not flip readiness, but the
// degradation is surfaced in the body so operators see it on the probe
// they already watch.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	loaded := len(s.logs)
	quarantined := make(map[string]string, len(s.quarantine))
	for name, reason := range s.quarantine {
		quarantined[name] = reason
	}
	s.mu.RUnlock()
	if loaded == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "loading", "logs_loaded": 0})
		return
	}
	doc := map[string]any{"status": "ready", "logs_loaded": loaded}
	if len(quarantined) > 0 {
		doc["status"] = "degraded"
		doc["quarantined"] = quarantined
	}
	// A coordinator with lost workers (probe-unhealthy, or breaker not
	// closed) still answers — degraded, with partial coverage — so like a
	// quarantined log this surfaces on the probe without flipping readiness.
	if s.coord != nil {
		doc["workers"] = s.coord.Health()
		if lost := s.coord.Lost(); len(lost) > 0 {
			doc["status"] = "degraded"
			doc["workers_lost"] = lost
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// errorDoc is the JSON error envelope. Beyond the message, resilience
// failures attach machine-readable context: the incident id of a recovered
// panic (500), the retry hint of a shed query (429), the tripped budget
// dimension with its partial per-operator cost table (422), or the predicted
// cost versus the admission ceiling (422 pre-flight).
type errorDoc struct {
	Error             string        `json:"error"`
	IncidentID        string        `json:"incident_id,omitempty"`
	RetryAfterSeconds int           `json:"retry_after_seconds,omitempty"`
	BudgetDimension   string        `json:"budget_dimension,omitempty"`
	BudgetLimit       uint64        `json:"budget_limit,omitempty"`
	BudgetMeasured    uint64        `json:"budget_measured,omitempty"`
	PredictedCost     float64       `json:"predicted_cost,omitempty"`
	CostCeiling       float64       `json:"cost_ceiling,omitempty"`
	CostTable         []obs.CostRow `json:"cost_table,omitempty"`
	// Completeness accompanies a 502 strict-mode rejection of a partial
	// result: what the result would have covered had the client opted into
	// degraded mode with "partial": true.
	Completeness *shard.Completeness `json:"completeness,omitempty"`
	// Append failures (POST /v1/logs/{name}/append): Record names the
	// offending record (422 discipline rejection, or the unpersisted record
	// of a durability failure); Accepted counts the records of the same
	// request that were already durably applied — they are not rolled back
	// — and LastLSN is the watermark to resume from.
	Record   string `json:"record,omitempty"`
	Accepted int    `json:"accepted,omitempty"`
	LastLSN  uint64 `json:"last_lsn,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Log names the loaded log to query (optional when one log is loaded).
	Log string `json:"log"`
	// Query is the incident-pattern query text.
	Query string `json:"query"`
	// Mode selects the answer shape: "incidents" (default), "exists",
	// "count", or "instances".
	Mode string `json:"mode,omitempty"`
	// Strategy overrides the join implementation: "merge" or "naive".
	Strategy string `json:"strategy,omitempty"`
	// NoOptimize evaluates the pattern exactly as written, bypassing both
	// the Theorem 2–5 rewriter and the cache.
	NoOptimize bool `json:"no_optimize,omitempty"`
	// Limit caps (best effort) incidents per operator per instance.
	// Results depend on it, so it is part of the cache key.
	Limit int `json:"limit,omitempty"`
	// Workers overrides the per-query parallelism (capped by the server's
	// configured value).
	Workers int `json:"workers,omitempty"`
	// MaxResults truncates the incidents array in the response (the full
	// set is still computed and cached); 0 returns everything.
	MaxResults int `json:"max_results,omitempty"`
	// TimeoutMS lowers the per-request timeout; it cannot raise it above
	// the server's configured value.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace enables execution tracing: the response carries the span tree
	// and the per-operator Lemma 1 cost table. Traced queries bypass the
	// result cache (a cached result has no fresh evaluation to measure).
	Trace bool `json:"trace,omitempty"`
	// Partial opts into degraded mode on a sharded server: when shards are
	// lost to faults, accept the surviving shards' incidents as a 206
	// response with a completeness object instead of a 502. Ignored when
	// the server does not shard (results are then always complete).
	Partial bool `json:"partial,omitempty"`
}

// incidentDoc is the wire form of one incident.
type incidentDoc struct {
	WID  uint64   `json:"wid"`
	Seqs []uint64 `json:"seqs"`
}

// queryResponse is the POST /v1/query result.
type queryResponse struct {
	Log       string        `json:"log"`
	Query     string        `json:"query"`
	Canonical string        `json:"canonical"`
	Plan      string        `json:"plan"`
	Strategy  string        `json:"strategy"`
	Mode      string        `json:"mode"`
	Cached    bool          `json:"cached"`
	ElapsedUS int64         `json:"elapsed_us"`
	Count     int           `json:"count"`
	Exists    bool          `json:"exists"`
	Instances []uint64      `json:"instances,omitempty"`
	Incidents []incidentDoc `json:"incidents,omitempty"`
	Truncated bool          `json:"truncated,omitempty"`
	// Trace is present when the request set "trace": true — the span tree
	// and per-operator cost table of this evaluation.
	Trace *obs.QueryTrace `json:"trace,omitempty"`
	// Partial is true when shards were lost and the result covers only the
	// surviving wid ranges (HTTP 206; requires "partial": true in the
	// request). Completeness is present on every sharded evaluation and
	// says exactly which wid ranges the result covers.
	Partial      bool                `json:"partial,omitempty"`
	Completeness *shard.Completeness `json:"completeness,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.queriesTotal.Add(1)
	// Admission control: shed immediately rather than queue behind a
	// saturated worker pool — a bounded, fast 429 beats an unbounded, slow
	// 504 (clients can back off; goodput is preserved under overload).
	if !s.admission.TryAcquire() {
		s.metrics.queriesShed.Add(1)
		retry := retryAfterSeconds(s.admission.RetryAfter())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorDoc{
			Error: fmt.Sprintf("server saturated: %d queries in flight (limit %d)",
				s.admission.InFlight(), s.admission.Capacity()),
			RetryAfterSeconds: retry,
		})
		return
	}
	defer s.admission.Release()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	started := time.Now()

	// Latency is observed on EVERY exit path — parse errors, timeouts and
	// evaluation failures included — so the percentiles and the histogram
	// are not survivorship-biased toward successful queries. The slow-query
	// log rides on the same hook, and so does the flight recorder: every
	// exit path with a known query text lands in it (slow and failed
	// executions additionally earn a slot in its notable ring).
	var req queryRequest
	var capture flightrec.Capture
	defer func() {
		elapsed := time.Since(started)
		s.metrics.observeLatency(elapsed)
		slow := s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery
		if slow {
			s.metrics.slowQueries.Add(1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("slow query",
					"query", req.Query,
					"log", req.Log,
					"duration_ms", float64(elapsed.Microseconds())/1000,
					"threshold_ms", float64(s.cfg.SlowQuery.Microseconds())/1000,
				)
			}
		}
		if s.flight != nil && req.Query != "" {
			capture.Time = time.Now()
			capture.Query = req.Query
			capture.ElapsedUS = elapsed.Microseconds()
			capture.Slow = slow
			if capture.Status == "" {
				capture.Status = flightrec.StatusOK
				capture.HTTPStatus = http.StatusOK
			}
			s.flight.Record(capture)
		}
	}()
	// capFail stamps the capture's outcome on an error exit; the deferred
	// hook above records it.
	capFail := func(st flightrec.Status, code int, msg string) {
		capture.Status = st
		capture.HTTPStatus = code
		capture.Error = msg
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.queryErrors.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.metrics.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		return
	}
	if req.Query == "" {
		s.metrics.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "incidents"
	}
	switch mode {
	case "incidents", "exists", "count", "instances":
	default:
		s.metrics.queryErrors.Add(1)
		capFail(flightrec.StatusError, http.StatusBadRequest, "unknown mode "+mode)
		writeError(w, http.StatusBadRequest,
			"unknown mode %q (want incidents, exists, count or instances)", mode)
		return
	}
	strategy, err := parseStrategy(req.Strategy, s.cfg.Strategy)
	if err != nil {
		s.metrics.queryErrors.Add(1)
		capFail(flightrec.StatusError, http.StatusBadRequest, err.Error())
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Limit < 0 || req.Workers < 0 || req.MaxResults < 0 || req.TimeoutMS < 0 {
		s.metrics.queryErrors.Add(1)
		capFail(flightrec.StatusError, http.StatusBadRequest, "negative request parameter")
		writeError(w, http.StatusBadRequest, "limit, workers, max_results and timeout_ms must be >= 0")
		return
	}
	entry, err := s.lookup(req.Log)
	if err != nil {
		s.metrics.queryErrors.Add(1)
		capFail(flightrec.StatusError, http.StatusNotFound, err.Error())
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	capture.Log = entry.name
	capture.Generation = entry.gen
	capture.Sharded = s.sharded()
	// A live log's index mutates under appends; freeze it for the whole
	// request — planning, evaluation, AND the cache put. Holding the read
	// lock across the put closes the stale-entry race: an append can only
	// take the write lock (and so run its delta invalidation) after this
	// request's result — computed from the pre-append view — is already in
	// the cache, where the invalidation sweep will find it.
	if entry.live != nil {
		mon := entry.live.Monitor()
		mon.RLock()
		defer mon.RUnlock()
		capture.IngestLSN = mon.LastLSNLocked()
	}

	// The trace is created before parsing so the parse span covers it. With
	// the flight recorder on, EVERY execution is traced internally — the
	// capture carries the span tree and cost table whether or not the client
	// asked for them — but only an explicit "trace": true puts the trace in
	// the response (and bypasses the result cache to guarantee fresh
	// measurements; the internal trace does not change caching semantics).
	var qtr *obs.Trace
	if req.Trace || s.flight != nil {
		qtr = obs.NewTrace("query")
	}

	sp := qtr.StartSpan("parse")
	p, err := pattern.Parse(req.Query)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		s.metrics.queryErrors.Add(1)
		capFail(flightrec.StatusError, http.StatusBadRequest, "parse error: "+err.Error())
		writeError(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}
	sp.SetAttr("pattern", p.String())
	sp.SetAttr("atoms", len(pattern.Atoms(p)))
	sp.SetAttr("operators", pattern.Operators(p))
	sp.End()

	sp = qtr.StartSpan("canonicalize")
	canonical := pattern.CanonicalKey(p)
	sp.SetAttr("key", canonical)
	sp.End()
	capture.Canonical = canonical

	// The reload generation is part of the key, so a hot reload makes every
	// pre-reload entry unreachable (LRU pressure ages them out) without an
	// invalidation sweep.
	cacheKey := fmt.Sprintf("%s\x00gen=%d\x00%s\x00limit=%d", entry.name, entry.gen, canonical, req.Limit)
	// Traced queries bypass the result cache: a cached result carries no
	// fresh evaluation to measure, so a hit would return an empty or stale
	// cost table.
	cacheable := !req.NoOptimize && !req.Trace

	var (
		ce         *cacheEntry
		cached     bool
		queryTrace *obs.QueryTrace
		comp       *shard.Completeness // non-nil iff the query ran sharded
	)
	if cacheable {
		ce, cached = s.cache.get(cacheKey)
	}
	if cached {
		s.metrics.cacheHits.Add(1)
		capture.Cached = true
		capture.Plan = ce.plan.String()
		if qtr != nil {
			// A cache hit ran no evaluation: the capture's trace carries the
			// parse/canonicalize spans but no eval spans or cost table.
			qtr.End()
			capture.Trace = &obs.QueryTrace{
				Query:    req.Query,
				Plan:     ce.plan.String(),
				Strategy: strategy.String(),
				Spans:    qtr.Root(),
			}
		}
	} else {
		if cacheable {
			s.metrics.cacheMisses.Add(1)
		}
		plan := pattern.Node(p)
		var trace rewrite.Trace
		if req.NoOptimize {
			trace = rewrite.Trace{Input: p, Output: p}
		} else {
			sp = qtr.StartSpan("rewrite")
			plan, trace = rewrite.Explain(p, entry.ix)
			obs.RewriteSpans(sp, trace)
			sp.End()
		}
		capture.Plan = plan.String()

		// Pre-flight admission: the cost model prices the plan the service
		// will actually run, so queries predicted to blow past the ceiling
		// are rejected before they consume a single worker.
		if s.cfg.MaxPredictedCost > 0 {
			predicted := rewrite.NewEstimator(entry.ix).Cost(plan)
			if predicted > s.cfg.MaxPredictedCost {
				s.metrics.costRejected.Add(1)
				capFail(flightrec.StatusError, http.StatusUnprocessableEntity,
					fmt.Sprintf("predicted cost %.3g exceeds ceiling %.3g", predicted, s.cfg.MaxPredictedCost))
				writeJSON(w, http.StatusUnprocessableEntity, errorDoc{
					Error: fmt.Sprintf(
						"query rejected before evaluation: predicted cost %.3g exceeds the ceiling %.3g (tighten the pattern, or raise -max-predicted-cost)",
						predicted, s.cfg.MaxPredictedCost),
					PredictedCost: predicted,
					CostCeiling:   s.cfg.MaxPredictedCost,
				})
				return
			}
		}

		meter := eval.NewMeter(plan)
		opts := eval.Options{Strategy: strategy, Limit: req.Limit, Meter: meter, Budget: s.cfg.Budget}
		workers := s.resolveWorkers(req.Workers, entry.ix)
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
		defer cancel()
		if qtr != nil {
			ctx = obs.WithTrace(ctx, qtr)
		}

		sp = qtr.StartSpan("eval")
		var qs eval.QueryStats
		var set *incident.Set
		// Distributed runs fill these from the fan-out: the fleet-aggregated
		// Lemma 1 table (workers measured, coordinator sums) and the
		// propagated trace id.
		var fleetTable []obs.CostRow
		var distTraceID string
		if s.coord != nil {
			// Distributed execution: the coordinator fans the optimized plan
			// out to the workers owning wids (consistent hash placement) and
			// merges their answers; a lost worker degrades the result to a
			// partial instead of failing the query, under the same
			// completeness contract as in-process shards.
			s.metrics.clusterQueries.Add(1)
			var fan cluster.Fanout
			set, comp, fan, err = s.coord.Execute(ctx, entry.name, plan, cluster.ExecOptions{
				WIDs:     entry.ix.WIDs(),
				Strategy: strategy.String(),
				Limit:    req.Limit,
				Budget:   s.cfg.Budget,
			}, &qs)
			capture.Workers = workerSummaryOf(fan)
			fleetTable = fan.CostTable
			distTraceID = fan.TraceID
			if comp != nil {
				s.metrics.widsExcluded.Add(uint64(comp.ExcludedWIDs))
			}
		} else if s.sharded() {
			// Sharded execution: each shard is its own failure domain with a
			// budget slice and panic isolation; a lost shard yields a partial
			// result instead of a failed query.
			s.metrics.shardedQueries.Add(1)
			set, comp, err = shard.Execute(ctx, entry.ix, max(s.cfg.Shards, 0), plan, opts, &qs)
			if comp != nil {
				s.metrics.shardsFailed.Add(uint64(comp.Failed))
				s.metrics.widsExcluded.Add(uint64(comp.ExcludedWIDs))
			}
		} else {
			ev := eval.New(entry.ix, opts)
			s.metrics.busyWorkers.Add(int64(workers))
			set, err = ev.EvalParallelCtx(ctx, plan, workers, &qs)
			s.metrics.busyWorkers.Add(int64(-workers))
		}
		s.metrics.instancesEvaluated.Add(uint64(qs.Instances))
		s.metrics.recordMeter(meter)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			// Error paths return before cache.put: a timeout, budget abort
			// or fault never poisons the result cache (see TestCacheNotPoisoned*).
			// The capture of a failed evaluation still carries the partial
			// cost table: every operator that completed before the abort is
			// accounted, which is usually exactly what explains the failure.
			qtr.End()
			if qtr != nil {
				ct := obs.CostTable(plan, meter)
				if len(fleetTable) > 0 {
					// Distributed: the workers measured; the local meter is
					// empty. A degraded run's fleet table still reflects only
					// the merged (complete) worker answers.
					ct = fleetTable
				}
				if distTraceID != "" {
					obs.StampWorker(qtr.Root(), "coordinator")
				}
				capture.Trace = &obs.QueryTrace{
					Query:     req.Query,
					Plan:      plan.String(),
					Strategy:  strategy.String(),
					TraceID:   distTraceID,
					Spans:     qtr.Root(),
					CostTable: ct,
				}
			}
			var be *resilience.BudgetError
			var pe *resilience.PanicError
			switch {
			case errors.As(err, &be):
				// 422 with the partial cost table: every operator that
				// completed before the abort is accounted, so the client
				// sees where the budget went.
				s.metrics.budgetAborts.Add(1)
				capFail(flightrec.StatusBudget, http.StatusUnprocessableEntity, be.Error())
				writeJSON(w, http.StatusUnprocessableEntity, errorDoc{
					Error:           fmt.Sprintf("query aborted: %v", be),
					BudgetDimension: be.Dimension,
					BudgetLimit:     be.Limit,
					BudgetMeasured:  be.Measured,
					CostTable:       obs.CostTable(plan, meter),
				})
			case errors.As(err, &pe):
				s.metrics.panicsRecovered.Add(1)
				if s.cfg.Logger != nil {
					s.cfg.Logger.Error("panic recovered in evaluation",
						"incident_id", pe.IncidentID,
						"query", req.Query,
						"panic", fmt.Sprint(pe.Value),
						"stack", string(pe.Stack),
					)
				}
				capFail(flightrec.StatusPanic, http.StatusInternalServerError,
					"evaluation fault (incident "+pe.IncidentID+")")
				writeJSON(w, http.StatusInternalServerError, errorDoc{
					Error:      "evaluation fault; the query was isolated and the service keeps serving",
					IncidentID: pe.IncidentID,
				})
			case s.coord != nil && ctx.Err() == nil:
				// Whole-fleet loss: every shard-holding worker failed or was
				// skipped by its breaker (single-worker losses degrade to a
				// partial above, not an error). 502: the upstreams failed us.
				// The completeness names exactly what was lost.
				s.metrics.queryErrors.Add(1)
				capFail(flightrec.StatusError, http.StatusBadGateway,
					"cluster evaluation failed: "+err.Error())
				capture.Completeness = comp
				writeJSON(w, http.StatusBadGateway, errorDoc{
					Error:        fmt.Sprintf("cluster evaluation failed: %v", err),
					Completeness: comp,
				})
			case errors.Is(err, context.DeadlineExceeded):
				s.metrics.queryTimeouts.Add(1)
				capFail(flightrec.StatusTimeout, http.StatusGatewayTimeout,
					fmt.Sprintf("query exceeded the %v evaluation timeout", s.timeout(req.TimeoutMS)))
				writeError(w, http.StatusGatewayTimeout,
					"query exceeded the %v evaluation timeout", s.timeout(req.TimeoutMS))
			default:
				s.metrics.queryErrors.Add(1)
				capFail(flightrec.StatusError, http.StatusInternalServerError, err.Error())
				writeError(w, http.StatusInternalServerError, "evaluation aborted: %v", err)
			}
			return
		}
		sp.SetAttr("strategy", strategy.String())
		sp.SetAttr("workers", qs.Workers)
		sp.SetAttr("instances", qs.Instances)
		sp.SetAttr("incidents", qs.Incidents)
		obs.EvalSpans(sp, plan, meter)
		sp.End()
		qtr.End()
		if qtr != nil {
			// Built whenever an internal trace exists (flight recorder on or
			// trace requested); attached to the response only on request.
			ct := obs.CostTable(plan, meter)
			if len(fleetTable) > 0 {
				ct = fleetTable
			}
			if distTraceID != "" {
				// Every locally recorded span of a stitched distributed trace
				// gets coordinator attribution; grafted subtrees keep the
				// worker stamp they arrived with.
				obs.StampWorker(qtr.Root(), "coordinator")
			}
			queryTrace = &obs.QueryTrace{
				Query:     req.Query,
				Plan:      plan.String(),
				Strategy:  strategy.String(),
				TraceID:   distTraceID,
				Spans:     qtr.Root(),
				CostTable: ct,
			}
			capture.Trace = queryTrace
		}
		// Strict mode: an incomplete result the client did not opt into is a
		// 502 (the upstream shards failed us), carrying the completeness
		// object so the caller sees what degraded mode would have returned.
		if comp != nil && !comp.Complete {
			s.metrics.partialResults.Add(1)
			if !req.Partial {
				s.metrics.queryErrors.Add(1)
				capFail(flightrec.StatusPartial, http.StatusBadGateway,
					fmt.Sprintf("partial result rejected: %d of %d shards lost", comp.Failed+comp.Skipped, comp.Shards))
				capture.Completeness = comp
				writeJSON(w, http.StatusBadGateway, errorDoc{
					Error: fmt.Sprintf(
						"partial result: %d of %d shards lost (%d wids excluded); set \"partial\": true to accept degraded results",
						comp.Failed+comp.Skipped, comp.Shards, comp.ExcludedWIDs),
					Completeness: comp,
				})
				return
			}
		}
		// The log name and the plan's atoms tag the entry for delta
		// invalidation under live ingestion: an append drops exactly the
		// entries whose answers could include the new record.
		ce = &cacheEntry{plan: plan, trace: trace, set: set,
			log: entry.name, atoms: pattern.Atoms(plan)}
		// A partial result is never cached: a later query must not be served
		// an excluded wid range's absence as if it were evaluated truth, and
		// the shards may well recover before the entry would age out.
		if cacheable && (comp == nil || comp.Complete) {
			s.cache.put(cacheKey, ce)
		}
	}

	resp := queryResponse{
		Log:       entry.name,
		Query:     req.Query,
		Canonical: canonical,
		Plan:      ce.plan.String(),
		Strategy:  strategy.String(),
		Mode:      mode,
		Cached:    cached,
		Count:     ce.set.Len(),
		Exists:    ce.set.Len() > 0,
	}
	if req.Trace {
		// The internal always-on trace (flight recorder) is captured above;
		// the response carries it only when explicitly requested.
		resp.Trace = queryTrace
	}
	resp.Completeness = comp
	resp.Partial = comp != nil && !comp.Complete
	switch mode {
	case "instances":
		resp.Instances = ce.set.WIDs()
	case "incidents":
		incs := ce.set.Incidents()
		if req.MaxResults > 0 && len(incs) > req.MaxResults {
			incs = incs[:req.MaxResults]
			resp.Truncated = true
		}
		docs := make([]incidentDoc, len(incs))
		for i, inc := range incs {
			docs[i] = incidentDoc{WID: inc.WID(), Seqs: inc.Seqs()}
		}
		resp.Incidents = docs
		s.metrics.incidentsReturned.Add(uint64(len(docs)))
	}
	resp.ElapsedUS = time.Since(started).Microseconds()
	code := http.StatusOK
	capture.Status = flightrec.StatusOK
	if resp.Partial {
		// 206: a well-formed answer covering only part of the log, as the
		// request's "partial": true accepted.
		code = http.StatusPartialContent
		capture.Status = flightrec.StatusPartial
	}
	capture.HTTPStatus = code
	capture.Completeness = comp
	writeJSON(w, code, resp)
}

// retryAfterSeconds converts an advisory retry delay to the whole-second
// Retry-After value. The delay is rounded UP (a sub-second hint must not
// truncate to "retry immediately", which under saturation synchronizes
// every shed client into a retry stampede), floored at 1 second, and
// spread with up to one second of jitter so a burst of simultaneous 429s
// does not come back as a burst of simultaneous retries.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs + mrand.Intn(2)
}

// timeout resolves the effective per-request timeout: the configured bound,
// lowered (never raised) by the request's timeout_ms.
func (s *Server) timeout(requestMS int) time.Duration {
	t := s.cfg.Timeout
	if requestMS > 0 {
		if rt := time.Duration(requestMS) * time.Millisecond; rt < t {
			t = rt
		}
	}
	return t
}

// resolveWorkers mirrors eval's worker resolution so the busy-worker gauge
// matches what EvalParallelCtx actually spawns: the configured (or lower
// requested) count, capped by the instance count.
func (s *Server) resolveWorkers(requested int, ix *eval.Index) int {
	w := s.cfg.Workers
	if requested > 0 && requested < w {
		w = requested
	}
	if n := len(ix.WIDs()); w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func parseStrategy(name string, fallback eval.Strategy) (eval.Strategy, error) {
	switch name {
	case "":
		return fallback, nil
	case "merge":
		return eval.StrategyMerge, nil
	case "naive":
		return eval.StrategyNaive, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want merge or naive)", name)
	}
}

// estimateDoc is the wire form of a rewrite.Estimate.
type estimateDoc struct {
	Cost            float64 `json:"cost"`
	CardPerInstance float64 `json:"cardinality_per_instance"`
	Atoms           int     `json:"atoms"`
}

func toEstimateDoc(e rewrite.Estimate) estimateDoc {
	return estimateDoc{Cost: e.Cost, CardPerInstance: e.Card, Atoms: e.Atoms}
}

// selectivityDoc surfaces the cost model's assumed selectivity constants.
// See rewrite.ModelSelectivities and docs/OPERATIONS.md.
type selectivityDoc struct {
	Guard       float64 `json:"guard"`
	Consecutive float64 `json:"consecutive"`
	Sequential  float64 `json:"sequential"`
	Parallel    float64 `json:"parallel"`
}

func toSelectivityDoc(sel rewrite.Selectivities) selectivityDoc {
	return selectivityDoc{
		Guard:       sel.Guard,
		Consecutive: sel.Consecutive,
		Sequential:  sel.Sequential,
		Parallel:    sel.Parallel,
	}
}

// explainResponse is the GET /v1/explain result.
type explainResponse struct {
	Log           string         `json:"log"`
	Query         string         `json:"query"`
	PaperForm     string         `json:"paper_form"`
	Canonical     string         `json:"canonical"`
	IncidentTree  string         `json:"incident_tree"`
	Optimized     string         `json:"optimized"`
	Changed       bool           `json:"changed"`
	Steps         []string       `json:"steps"`
	Before        estimateDoc    `json:"before"`
	After         estimateDoc    `json:"after"`
	Strategy      string         `json:"strategy"`
	Workers       int            `json:"workers"`
	Selectivities selectivityDoc `json:"selectivities"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	entry, err := s.lookup(r.URL.Query().Get("log"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	p, err := pattern.Parse(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}
	// The estimator reads activity counts off the index; freeze a live
	// log's index against appends for the duration.
	if entry.live != nil {
		mon := entry.live.Monitor()
		mon.RLock()
		defer mon.RUnlock()
	}
	opt, trace := rewrite.Explain(p, entry.ix)
	steps := trace.Steps
	if steps == nil {
		steps = []string{}
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Log:           entry.name,
		Query:         q,
		PaperForm:     pattern.Pretty(p),
		Canonical:     pattern.CanonicalKey(p),
		IncidentTree:  pattern.TreeString(p),
		Optimized:     opt.String(),
		Changed:       trace.Changed(),
		Steps:         steps,
		Before:        toEstimateDoc(trace.Before),
		After:         toEstimateDoc(trace.After),
		Strategy:      s.cfg.Strategy.String(),
		Workers:       s.cfg.Workers,
		Selectivities: toSelectivityDoc(trace.Selectivities),
	})
}

// logDoc is one entry of the GET /v1/logs inventory.
type logDoc struct {
	Name              string `json:"name"`
	Source            string `json:"source"`
	Records           int    `json:"records"`
	Instances         int    `json:"instances"`
	CompleteInstances int    `json:"complete_instances"`
	Activities        int    `json:"activities"`
	Valid             bool   `json:"valid"`
	Error             string `json:"error,omitempty"`
	// Generation counts hot reloads of this log (0 = the startup load).
	Generation uint64 `json:"generation"`
	// ReloadError is set while the log is quarantined: the last reload
	// failed and this entry is the retained last-good snapshot.
	ReloadError string `json:"reload_error,omitempty"`
	// Live marks a log accepting durable appends; IngestLSN is then its
	// applied high-water mark (the lsn an appender last saw acknowledged).
	Live      bool   `json:"live,omitempty"`
	IngestLSN uint64 `json:"ingest_lsn,omitempty"`
}

// logsResponse is the GET /v1/logs result.
type logsResponse struct {
	Logs []logDoc `json:"logs"`
}

func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*logEntry, 0, len(s.names))
	reloadErrs := make(map[string]string, len(s.quarantine))
	for _, name := range s.names {
		entries = append(entries, s.logs[name])
		if reason, ok := s.quarantine[name]; ok {
			reloadErrs[name] = reason
		}
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	docs := make([]logDoc, len(entries))
	for i, e := range entries {
		docs[i] = logDoc{
			Name:        e.name,
			Source:      e.source,
			Valid:       e.valid,
			Error:       e.reason,
			Generation:  e.gen,
			ReloadError: reloadErrs[e.name],
		}
		if e.live != nil {
			// Live counts come off the monitor, not the startup snapshot:
			// the snapshot does not know about appended records.
			mon := e.live.Monitor()
			mon.RLock()
			ix := mon.Index()
			wids := ix.WIDs()
			complete := 0
			for _, wid := range wids {
				if recs := ix.Instance(wid); len(recs) > 0 && recs[len(recs)-1].IsEnd() {
					complete++
				}
			}
			docs[i].Records = ix.TotalRecords()
			docs[i].Instances = len(wids)
			docs[i].CompleteInstances = complete
			docs[i].Activities = len(ix.Activities())
			docs[i].Live = true
			docs[i].IngestLSN = mon.LastLSNLocked()
			mon.RUnlock()
			continue
		}
		complete := 0
		for _, wid := range e.log.WIDs() {
			if e.log.InstanceComplete(wid) {
				complete++
			}
		}
		docs[i].Records = e.log.Len()
		docs[i].Instances = len(e.log.WIDs())
		docs[i].CompleteInstances = complete
		docs[i].Activities = len(e.ix.Activities())
	}
	writeJSON(w, http.StatusOK, logsResponse{Logs: docs})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
	case "prometheus":
		s.writePrometheus(w)
		return
	default:
		writeError(w, http.StatusBadRequest,
			"unknown format %q (want json or prometheus)", format)
		return
	}
	s.mu.RLock()
	loaded, quarantined := len(s.logs), len(s.quarantine)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK,
		s.metrics.snapshot(loaded, quarantined, s.cfg.Workers, s.cache, s.admission, s.flight, s.clusterMetrics(), s.ingestMetrics()))
}
