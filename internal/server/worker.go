package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// The worker side of the cluster tier (Config.WorkerMode): one endpoint,
//
//	POST /v1/worker/query
//
// evaluating the coordinator's already-optimized plan verbatim against the
// wids this worker's ring view assigns it, on its local index. Workers do
// not rewrite, cache or record flights for coordinator traffic — the coordinator owns the query lifecycle; a worker is a remote
// failure domain with an evaluator, deliberately as thin as an in-process
// shard. When the request asks for tracing the worker does run an
// obs.Trace (under the coordinator's propagated trace id) and ships the
// span tree and cost table back, but the measurements are the
// coordinator's to act on.

// decodeJSON decodes a wire document. Unknown fields are tolerated: during
// a rolling upgrade the coordinator and workers may briefly speak adjacent
// protocol versions, and rejecting a new optional field would turn every
// deploy into an outage.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// handleWorkerQuery serves one shard-holding worker's part of a distributed
// query.
func (s *Server) handleWorkerQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.workerQueries.Add(1)
	// The shared admission controller protects worker capacity too; a shed
	// request is a 429, which the coordinator classifies as retryable.
	if !s.admission.TryAcquire() {
		s.metrics.queriesShed.Add(1)
		s.metrics.workerQueryErrors.Add(1)
		retry := retryAfterSeconds(s.admission.RetryAfter())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, cluster.WorkerErrorDoc{
			Error: fmt.Sprintf("worker saturated: %d queries in flight (limit %d)",
				s.admission.InFlight(), s.admission.Capacity()),
		})
		return
	}
	defer s.admission.Release()
	started := time.Now()

	fail := func(code int, doc cluster.WorkerErrorDoc) {
		s.metrics.workerQueryErrors.Add(1)
		writeJSON(w, code, doc)
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req cluster.WorkerQueryRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		fail(http.StatusBadRequest, cluster.WorkerErrorDoc{Error: "malformed worker request: " + err.Error()})
		return
	}
	// Distributed tracing: when the coordinator asks, run the evaluation
	// under an obs.Trace adopting the propagated trace id and return the
	// span tree + Lemma 1 cost table in the response; the coordinator
	// aggregates the tables fleet-wide.
	var (
		tr    *obs.Trace
		meter *eval.Meter
	)
	if req.Trace {
		tr = obs.NewTrace("worker")
		if tid, psid, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			tr.SetID(tid)
			tr.Root().SetAttr("parent_span_id", psid)
		}
		tr.Root().SetAttr("trace_id", tr.ID())
	}
	prep := tr.StartSpan("prepare")
	entry, err := s.lookup(req.Log)
	if err != nil {
		fail(http.StatusNotFound, cluster.WorkerErrorDoc{Error: err.Error()})
		return
	}
	p, err := pattern.Parse(req.Plan)
	if err != nil {
		fail(http.StatusBadRequest, cluster.WorkerErrorDoc{Error: "bad plan: " + err.Error()})
		return
	}
	strategy, err := parseStrategy(req.Strategy, s.cfg.Strategy)
	if err != nil {
		fail(http.StatusBadRequest, cluster.WorkerErrorDoc{Error: err.Error()})
		return
	}
	if tr != nil {
		meter = eval.NewMeter(p)
	}
	// Placement is self-derived: the ring parameters in the request rebuild
	// the coordinator's ring bit-for-bit (FNV-1a, stable across processes),
	// and this worker evaluates exactly the wids that ring assigns it. The
	// response echoes the owned count so the coordinator can detect skew.
	ring := cluster.NewRing(req.Ring, req.Replicas)
	self := ring.WorkerIndex(req.Self)
	if self < 0 {
		fail(http.StatusBadRequest, cluster.WorkerErrorDoc{
			Error: fmt.Sprintf("self %q not in ring membership", req.Self),
		})
		return
	}
	owned := ring.OwnedWIDs(entry.ix.WIDs(), self)
	prep.SetAttr("wids_owned", len(owned))
	prep.End()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	opts := eval.Options{Strategy: strategy, Limit: req.Limit, Meter: meter, Budget: req.Budget.Budget()}
	var qs eval.QueryStats
	esp := tr.StartSpan("eval")
	set, err := eval.New(entry.ix, opts).EvalWIDsCtx(ctx, p, owned, &qs)
	esp.End()
	if err != nil {
		var be *resilience.BudgetError
		var pe *resilience.PanicError
		switch {
		case errors.As(err, &be):
			// Deterministic: the coordinator must not retry a budget abort.
			s.metrics.budgetAborts.Add(1)
			fail(http.StatusUnprocessableEntity, cluster.WorkerErrorDoc{
				Error:           fmt.Sprintf("worker budget exceeded: %v", be),
				BudgetDimension: be.Dimension,
			})
		case errors.As(err, &pe):
			s.metrics.panicsRecovered.Add(1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("panic recovered in worker evaluation",
					"incident_id", pe.IncidentID,
					"log", entry.name,
					"plan", req.Plan,
					"panic", fmt.Sprint(pe.Value),
					"stack", string(pe.Stack),
				)
			}
			fail(http.StatusInternalServerError, cluster.WorkerErrorDoc{
				Error:      "worker evaluation fault",
				IncidentID: pe.IncidentID,
			})
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.queryTimeouts.Add(1)
			fail(http.StatusGatewayTimeout, cluster.WorkerErrorDoc{
				Error: fmt.Sprintf("worker evaluation exceeded the %v timeout", s.cfg.Timeout),
			})
		default:
			fail(http.StatusInternalServerError, cluster.WorkerErrorDoc{
				Error: "worker evaluation aborted: " + err.Error(),
			})
		}
		return
	}
	s.metrics.instancesEvaluated.Add(uint64(qs.Instances))
	resp := cluster.WorkerQueryResponse{
		Worker:    req.Self,
		WIDsOwned: len(owned),
		Instances: qs.Instances,
		Incidents: cluster.FromIncidents(set.Incidents()),
		ElapsedUS: time.Since(started).Microseconds(),
	}
	if tr != nil {
		obs.EvalSpans(esp, p, meter)
		esp.SetAttr("instances", qs.Instances)
		esp.SetAttr("incidents", len(resp.Incidents))
		tr.End()
		root := tr.Root()
		obs.StampWorker(root, req.Self)
		max := req.MaxTraceSpans
		if max <= 0 {
			max = cluster.DefaultMaxTraceSpans
		}
		obs.CapSpans(root, max)
		resp.TraceID = tr.ID()
		resp.Spans = root
		resp.CostTable = obs.CostTable(p, meter)
	}
	writeJSON(w, http.StatusOK, resp)
}
