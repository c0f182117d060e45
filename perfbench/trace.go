package main

// The traced run: spans around the calls into each layer, recorded by the
// benchmark itself. Request spans come from the traced half of the window;
// the layer spans come from replaying the run's requests and appends
// through each layer's public functions outside the window.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/ingest"
	"wlq/internal/stream"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// Replay caps, so the traced run's replays take a few seconds.
const (
	replayCached   = 600 // cached requests replayed (parse and canonicalize only)
	replayUncached = 600 // evaluated requests replayed through every layer
	replayCluster  = 200 // requests replayed through the cluster coordinator
	replayRecords  = 500 // appended records replayed through the append path
	replaySetups   = 3   // repetitions of each set-up step
)

// span is one timed interval. Start and End are offsets from the run's
// epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanStore keeps every span in memory until the run ends.
type spanStore struct {
	mu    sync.Mutex
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{} }

// add records a span and returns its id.
func (s *spanStore) add(parent int64, name string, start, end time.Duration, note string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.spans) + 1)
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end), Note: note})
	return id
}

// byName returns the durations of every span with the given name, in µs.
func (s *spanStore) byName(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, float64(sp.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// finish computes every span's self time (its duration minus the union of
// its children's intervals) and counts children that do not fit within
// their parent.
func (s *spanStore) finish() (violations int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make(map[int64][]int, len(s.spans))
	for i, sp := range s.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i := range s.spans {
		p := &s.spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return s.spans[kids[a]].Start < s.spans[kids[b]].Start })
		var covered, reach int64
		reach = p.Start
		for _, k := range kids {
			c := s.spans[k]
			if c.Start < p.Start || c.End > p.End {
				violations++
			}
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.SelfNS = p.End - p.Start - covered
	}
	return violations
}

func (s *spanStore) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	// Synced before the run ends, so that writing it back does not land
	// on the fsyncs of the next run.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordRequest adds the spans of one traced request: client.request, its
// server.handler child (the server's own elapsed_us, measured before it
// encodes) and the server.respond remainder (encode, write, transport).
func (s *spanStore) recordRequest(r *result) {
	end := r.start + r.dur
	handler := r.start + time.Duration(r.elapsedUS)*time.Microsecond
	r.span = s.add(0, "client.request", r.start, end, "")
	s.add(r.span, "server.handler", r.start, handler, "")
	s.add(r.span, "server.respond", min(handler, end), end, "")
}

// layerSample is the replay of one request through the query layers.
type layerSample struct {
	res                          result
	parse, canon, plan, evaluate time.Duration
	allocs, allocBytes           float64
	instances, incidents         int
	comparisons                  uint64
}

// replay times each layer's public functions on the run's inputs.
func (b *bench) replay() error {
	if err := b.replayQueries(); err != nil {
		return err
	}
	if err := b.replayAppends(); err != nil {
		return err
	}
	if err := b.replayCluster(); err != nil {
		return err
	}
	return b.replaySetup()
}

// replayLog is the log the requests were answered over: the base log, plus
// the acknowledged appends on ingest-live.
func (b *bench) replayLog() (*wlog.Log, error) {
	if b.o.workload != wlIngestLive {
		return b.base, nil
	}
	records := b.base.Records()
	for i := range b.appended {
		if b.acked(i) {
			records = append(records, b.appends[i].records...)
		}
	}
	return wlog.New(records)
}

// evenly picks at most n of rs, spread evenly.
func evenly(rs []result, n int) []result {
	if len(rs) <= n {
		return rs
	}
	out := make([]result, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rs[i*len(rs)/n])
	}
	return out
}

func (b *bench) replayQueries() error {
	l, err := b.replayLog()
	if err != nil {
		return err
	}
	ix := eval.NewIndex(l)
	var cached, uncached []result
	for _, r := range append(append([]result(nil), b.warm...), b.window...) {
		switch {
		case !r.ok():
		case r.cached:
			cached = append(cached, r)
		default:
			uncached = append(uncached, r)
		}
	}
	todo := append(evenly(uncached, replayUncached), evenly(cached, replayCached)...)
	sel := rewrite.ModelSelectivities()
	workers := min(runtime.GOMAXPROCS(0), len(ix.WIDs()))
	b.samples = b.samples[:0]
	for _, r := range todo {
		req := b.load.distinct[r.req]
		s := layerSample{res: r}
		t0 := time.Now()
		p, err := pattern.Parse(req.Query)
		if err != nil {
			return fmt.Errorf("replay parse %q: %w", req.Query, err)
		}
		t1 := time.Now()
		_ = pattern.CanonicalKey(p)
		t2 := time.Now()
		s.parse, s.canon = t1.Sub(t0), t2.Sub(t1)
		root := b.spans.add(0, "replay.request", t0.Sub(b.epoch), t2.Sub(b.epoch), req.Query)
		b.spans.add(root, "pattern.parse", t0.Sub(b.epoch), t1.Sub(b.epoch), "")
		b.spans.add(root, "pattern.canonicalize", t1.Sub(b.epoch), t2.Sub(b.epoch), "")
		if !r.cached {
			plan, _ := rewrite.ExplainWith(p, ix, sel)
			t3 := time.Now()
			meter := eval.NewMeter(plan)
			ev := eval.New(ix, eval.Options{Strategy: eval.StrategyMerge, Meter: meter})
			var qs eval.QueryStats
			rt0 := readRuntime()
			t4 := time.Now()
			if _, err := ev.EvalParallelCtx(context.Background(), plan, workers, &qs); err != nil {
				return fmt.Errorf("replay eval %q: %w", req.Query, err)
			}
			t5 := time.Now()
			d := readRuntime().sub(rt0)
			s.plan, s.evaluate = t3.Sub(t2), t5.Sub(t4)
			s.allocs, s.allocBytes = d.allocObjects, d.allocBytes
			s.instances, s.incidents, s.comparisons = qs.Instances, qs.Incidents, meter.TotalComparisons()
			b.spans.add(root, "rewrite.plan", t2.Sub(b.epoch), t3.Sub(b.epoch), "")
			b.spans.add(root, "eval.evaluate", t4.Sub(b.epoch), t5.Sub(b.epoch), req.Mode)
			b.spans.setEnd(root, t5.Sub(b.epoch))
		}
		b.samples = append(b.samples, s)
	}
	return nil
}

func (s *spanStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// setEnd extends a span to end.
func (s *spanStore) setEnd(id int64, end time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[id-1].End = int64(end)
}

// timed runs fn and records it as a span.
func (b *bench) timed(parent int64, name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	b.spans.add(parent, name, t0.Sub(b.epoch), t1.Sub(b.epoch), "")
	return t1.Sub(t0), err
}

// replayAppends replays the run's appended records through the ingest
// coordinator (as the server calls it), a stream monitor (validate, apply)
// and a bare WAL (append, sync), each on its own scratch state with the
// server's policy, then times a WAL replay of what was written.
func (b *bench) replayAppends() error {
	var records []wlog.Record
	for _, a := range b.appends {
		records = append(records, a.records...)
		if len(records) >= replayRecords {
			break
		}
	}
	records = records[:min(len(records), replayRecords)]

	dir := filepath.Join(b.scratch, "replay-ingest")
	if err := freshDir(dir); err != nil {
		return err
	}
	coord, _, err := ingest.Open(b.base, ingest.Config{Dir: dir, Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	for _, r := range records {
		if _, err := b.timed(0, "ingest.append", func() error { _, err := coord.Append(r); return err }); err != nil {
			coord.Close()
			return fmt.Errorf("replay ingest: %w", err)
		}
	}
	if err := coord.Close(); err != nil {
		return err
	}

	mon := stream.NewMonitorOn(nil, eval.NewEmptyIndex())
	if err := mon.IngestLog(b.base); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := b.timed(0, "stream.validate", func() error { return mon.Validate(r) }); err != nil {
			return fmt.Errorf("replay validate: %w", err)
		}
		if _, err := b.timed(0, "stream.apply", func() error { return mon.Ingest(r) }); err != nil {
			return fmt.Errorf("replay apply: %w", err)
		}
	}

	wdir := filepath.Join(b.scratch, "replay-wal")
	if err := freshDir(wdir); err != nil {
		return err
	}
	w, _, err := wal.Open(wal.Options{Dir: wdir, Policy: wal.PolicyNever})
	if err != nil {
		return err
	}
	for _, r := range records {
		if _, err := b.timed(0, "wal.append", func() error { return w.Append(r) }); err != nil {
			w.Close()
			return fmt.Errorf("replay wal append: %w", err)
		}
		if _, err := b.timed(0, "wal.sync", w.Sync); err != nil {
			w.Close()
			return fmt.Errorf("replay wal sync: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	var replayed int
	d, err := b.timed(0, "wal.replay", func() error {
		w, _, err := wal.Open(wal.Options{Dir: wdir, Policy: wal.PolicyNever})
		if err != nil {
			return err
		}
		defer w.Close()
		return w.Replay(func(wlog.Record) error { replayed++; return nil })
	})
	if err != nil {
		return fmt.Errorf("replay wal: %w", err)
	}
	b.walReplayRate = float64(replayed) / d.Seconds()
	return nil
}

// replayCluster times Coordinator.Execute directly on the run's requests,
// over the workload's own cluster or, on single-node workloads, over a
// cluster started for the replay.
func (b *bench) replayCluster() error {
	f := b.fleet
	if b.o.workload != wlClusterFanout {
		var err error
		if f, err = startCluster(b.base); err != nil {
			return err
		}
		defer f.stop()
	}
	coord := f.front.srv.Coordinator()
	ix := eval.NewIndex(b.base)
	sel := rewrite.ModelSelectivities()
	seen := make(map[int32]bool)
	for _, s := range b.samples {
		if len(seen) == replayCluster {
			break
		}
		if seen[s.res.req] {
			continue
		}
		seen[s.res.req] = true
		req := b.load.distinct[s.res.req]
		p, err := pattern.Parse(req.Query)
		if err != nil {
			return err
		}
		plan, _ := rewrite.ExplainWith(p, ix, sel)
		var qs eval.QueryStats
		t0 := time.Now()
		_, comp, fan, err := coord.Execute(context.Background(), logName, plan,
			cluster.ExecOptions{WIDs: b.base.WIDs(), Strategy: eval.StrategyMerge.String()}, &qs)
		t1 := time.Now()
		if err != nil || (comp != nil && !comp.Complete) {
			return fmt.Errorf("replay cluster %q: incomplete (%v)", req.Query, err)
		}
		root := b.spans.add(0, "cluster.execute", t0.Sub(b.epoch), t1.Sub(b.epoch), req.Query)
		var slowest time.Duration
		for _, w := range fan.PerWorker {
			d := time.Duration(w.ElapsedUS) * time.Microsecond
			slowest = max(slowest, d)
			b.spans.add(root, "cluster.worker", t0.Sub(b.epoch), (t0.Add(d)).Sub(b.epoch), w.Worker)
			b.clusterRequests += float64(w.Attempts + w.Hedges)
		}
		b.clusterMerge = append(b.clusterMerge, float64(t1.Sub(t0)-slowest)/float64(time.Microsecond))
		b.clusterRetries += float64(fan.Retries)
		b.clusterHedges += float64(fan.Hedged)
		b.clusterQueries++
	}
	return nil
}

// replaySetup times the set-up steps one at a time.
func (b *bench) replaySetup() error {
	for i := 0; i < replaySetups; i++ {
		runtime.GC()
		if _, err := b.timed(0, "setup.index_build", func() error { eval.NewIndex(b.base); return nil }); err != nil {
			return err
		}
		dir := filepath.Join(b.scratch, "replay-open")
		if err := freshDir(dir); err != nil {
			return err
		}
		runtime.GC()
		var coord *ingest.Coordinator
		if _, err := b.timed(0, "setup.ingest_open", func() error {
			var err error
			coord, _, err = ingest.Open(b.base, ingest.Config{Dir: dir, Policy: wal.PolicyAlways})
			return err
		}); err != nil {
			return err
		}
		if err := coord.Close(); err != nil {
			return err
		}
	}
	return nil
}

// traceOutput derives the per-layer metrics.
func (b *bench) traceOutput() (*output, error) {
	for _, s := range b.setups {
		b.spans.add(0, "setup.generate", 0, s.generate, "")
	}
	violations := b.spans.finish()
	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", b.o.workload, b.o.seed))
	if err := b.spans.write(path); err != nil {
		return nil, err
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var respond, handler, bytesPerQ, ratios []float64
	for _, r := range b.window {
		if r.ok() {
			respond = append(respond, us(r.dur)-float64(r.elapsedUS))
			handler = append(handler, float64(r.elapsedUS))
			bytesPerQ = append(bytesPerQ, float64(r.bytes))
		}
	}
	var parse, canon, plan []float64
	evalByMode := map[string][]float64{}
	var allocs, allocBytes, instances []float64
	var comparisons, incidents float64
	for _, s := range b.samples {
		parse = append(parse, us(s.parse))
		canon = append(canon, us(s.canon))
		if s.res.cached {
			continue
		}
		plan = append(plan, us(s.plan))
		mode := b.load.distinct[s.res.req].Mode
		evalByMode[mode] = append(evalByMode[mode], us(s.evaluate))
		allocs = append(allocs, s.allocs)
		allocBytes = append(allocBytes, s.allocBytes)
		instances = append(instances, float64(s.instances))
		comparisons += float64(s.comparisons)
		incidents += float64(s.incidents)
		if s.res.span != 0 {
			// Accounting: the replayed layers plus the measured respond
			// time, against the request's client-observed round trip.
			sum := us(s.parse+s.canon+s.plan+s.evaluate) + us(s.res.dur) - float64(s.res.elapsedUS)
			ratios = append(ratios, sum/us(s.res.dur))
		}
	}

	var untraced, traced []float64
	for _, r := range b.untr {
		if r.ok() {
			untraced = append(untraced, ms(r.dur))
		}
	}
	for _, r := range b.window {
		if r.ok() {
			traced = append(traced, ms(r.dur))
		}
	}
	overhead := median(traced)/median(untraced) - 1

	var userBytes float64
	for i, a := range b.appended {
		if b.acked(i) {
			userBytes += float64(a.bytes)
		}
	}
	var gen []float64
	for _, s := range b.setups {
		gen = append(gen, s.generate.Seconds())
	}
	ad := b.appendSrvD
	ap := b.appendSummary()
	lookups := b.srvD.hits + b.srvD.misses
	m := map[string]metric{
		"server.respond_us":                 {median(respond), "us"},
		"server.response_bytes":             {mean(bytesPerQ), "bytes"},
		"server.handler_us":                 {median(handler), "us"},
		"server.cache_hit_ratio":            {ratio(b.srvD.hits, lookups), "ratio"},
		"server.cache_evictions":            {b.srvD.evictions, "count"},
		"server.invalidations_per_append":   {ratio(ad.invalidate, float64(len(b.appended))), "entries"},
		"server.queries_shed":               {b.srvD.shed, "count"},
		"pattern.parse_us":                  {median(parse), "us"},
		"pattern.canonicalize_us":           {median(canon), "us"},
		"rewrite.plan_us":                   {median(plan), "us"},
		"eval.allocs_per_query":             {mean(allocs), "objects"},
		"eval.alloc_bytes_per_query":        {mean(allocBytes), "bytes"},
		"eval.instances_per_query":          {mean(instances), "count"},
		"eval.comparisons_per_incident":     {ratio(comparisons, incidents), "ratio"},
		"runtime.gc_cpu_share":              {ratio(b.rtDelta.gcCPU, b.rtDelta.totalCPU), "ratio"},
		"ingest.append_us":                  {median(b.spans.byName("ingest.append")), "us"},
		"stream.validate_us":                {median(b.spans.byName("stream.validate")), "us"},
		"stream.apply_us":                   {median(b.spans.byName("stream.apply")), "us"},
		"wal.append_us":                     {median(b.spans.byName("wal.append")), "us"},
		"wal.sync_us":                       {median(b.spans.byName("wal.sync")), "us"},
		"wal.fsyncs_per_record":             {ratio(ad.walFsyncs, ad.walAppends), "ratio"},
		"wal.bytes_per_user_byte":           {ratio(ad.walBytes, userBytes), "ratio"},
		"wal.replay_records_per_s":          {b.walReplayRate, "1/s"},
		"cluster.execute_us":                {median(b.spans.byName("cluster.execute")), "us"},
		"cluster.worker_us":                 {median(b.spans.byName("cluster.worker")), "us"},
		"cluster.merge_us":                  {median(b.clusterMerge), "us"},
		"cluster.worker_requests_per_query": {ratio(b.clusterRequests, b.clusterQueries), "ratio"},
		"cluster.retries":                   {b.clusterRetries, "count"},
		"cluster.hedges":                    {b.clusterHedges, "count"},
		"setup.generate_s":                  {median(gen), "s"},
		"setup.index_build_s":               {median(b.spans.byName("setup.index_build")) / 1e6, "s"},
		"setup.ingest_open_s":               {median(b.spans.byName("setup.ingest_open")) / 1e6, "s"},
		"setup.heap_bytes_per_record":       {b.heap / float64(b.base.Len()), "bytes"},
		"loadgen.late_p99_ms":               {b.lateSummary().Tail, "ms"},
		"append_p50_ms":                     {ap.P50, "ms"},
		"append_p99_ms":                     {ap.Tail, "ms"},
		"recovery_s":                        {median(b.recovery), "s"},
		"trace.overhead_ratio":              {overhead, "ratio"},
		"trace.accounted_ratio":             {median(ratios), "ratio"},
	}
	for _, mode := range []string{modeIncidents, modeCount, modeExists} {
		t := summarize(evalByMode[mode])
		m["eval.evaluate_us."+mode+".p50"] = metric{t.P50, "us"}
		m["eval.evaluate_us."+mode+".p99"] = metric{t.Tail, "us"}
		fmt.Printf("eval.evaluate_us.%s p50 %.4g us, p%g %.4g us (n=%d)\n", mode, t.P50, 100*t.TailQ, t.Tail, t.N)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %.4g %s\n", k, m[k].Value, m[k].Unit)
	}
	b.printAppendPath()
	fmt.Printf("trace: %d spans written to %s\n", b.spans.len(), path)
	fmt.Printf("trace: overhead %+.2f%% (traced half p50 %.4g ms, n=%d; untraced half p50 %.4g ms, n=%d)\n",
		100*overhead, median(traced), len(traced), median(untraced), len(untraced))
	q1, q3 := quantile(ratios, 0.25), quantile(ratios, 0.75)
	verdict := "accounted"
	if len(ratios) == 0 || q1 > 1 || q3 < 1 {
		verdict = "NOT accounted"
	}
	fmt.Printf("trace: parse+canonicalize+plan+evaluate+respond / client.request median %.3f, IQR [%.3f, %.3f] over %d requests: %s\n",
		median(ratios), q1, q3, len(ratios), verdict)
	if violations > 0 {
		b.invalid = fmt.Sprintf("%d spans do not fit within their parent", violations)
	} else {
		fmt.Println("trace: every span's children fit within it")
	}
	okN, failedQ := queryTotals(append(append([]result(nil), b.untr...), b.window...))
	failed := failedQ + b.wrong
	for i := range b.appended {
		if !b.acked(i) {
			failed++
		}
	}
	return b.finish(okN+failedQ+len(b.appended), failed, m), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
