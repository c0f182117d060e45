// Command perfbench is the repository benchmark: it runs the program's
// HTTP service in-process against a seeded clinic log, drives one named
// workload, checks every answer, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as a JSON object on the last line
// of standard output. See GLOSSARY.md for the metrics and workloads.
//
//	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"wlq/internal/wlog"
)

// Fixed run parameters.
const (
	buildDir     = ".bench_build"  // everything a run writes, relative to the checkout root
	setupReps    = 7               // set-ups per run; setup_s is their median
	recoveryReps = 5               // reopens per run; recovery_s is their median
	warmup       = 1 * time.Second // untimed load before the window
	probeSeconds = 5               // length of the traced run's append probe on read-only workloads
	streamLen    = 1 << 17         // request stream length (wraps around)
	maxLag       = time.Second     // appender lag beyond which a run is invalid
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	appendRate float64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-mix, hot-repeat, ingest-live or cluster-fanout")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Float64Var(&o.appendRate, "append-rate", 40, "open-loop appender rate, instances per second")
	flag.Parse()
	o.trace = trace == 1
	if !slices.Contains(workloadNames, o.workload) || o.seconds < 1 || o.appendRate <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, append-rate %g, trace %d)\n",
			o.workload, o.seconds, o.appendRate, trace)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	o       options
	scratch string
	epoch   time.Time
	clients int

	base   *wlog.Log
	fleet  *fleet
	setups []setupTiming
	heap   float64 // live heap bytes after set-up

	load    *queryLoad
	warm    []result // warm-up requests
	window  []result // timed-window requests
	untr    []result // trace mode: the untraced first half of the window
	windowD time.Duration
	rtDelta runtimeSample
	srvD    metricsDelta

	appends    []appendBatch  // the append stream
	appended   []appendResult // what the appender saw
	appendSrvD metricsDelta   // server metrics around the appends
	recovery   []float64      // seconds per reopen

	wrong      int
	firstWrong string
	invalid    string // why the run's measurements cannot be used, if they cannot

	spans *spanStore

	// Traced-run replay results.
	samples         []layerSample
	walReplayRate   float64
	clusterMerge    []float64
	clusterRequests float64
	clusterRetries  float64
	clusterHedges   float64
	clusterQueries  float64
}

type setupTiming struct{ total, generate time.Duration }

func run(o options) (*output, error) {
	b := &bench{o: o, epoch: time.Now(), spans: newSpanStore()}
	b.scratch = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := freshDir(b.scratch); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.scratch)
	b.clients = min(2, runtime.NumCPU())
	if o.workload == wlIngestLive {
		b.clients = 1
	}
	err := b.execute()
	if b.fleet != nil {
		if serr := b.fleet.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	b.printEnv()
	if o.trace {
		return b.traceOutput()
	}
	return b.endToEndOutput(), nil
}

func (b *bench) execute() error {
	if err := b.setUp(); err != nil {
		return err
	}
	if b.o.workload == wlIngestLive || b.o.trace {
		n := int(b.o.appendRate * probeSeconds)
		if b.o.workload == wlIngestLive {
			n = int(b.o.appendRate * float64(b.o.seconds))
		}
		var err error
		if b.appends, err = appendStream(b.base, b.o.seed, n); err != nil {
			return err
		}
	}
	decode := b.o.workload == wlColdMix || b.o.workload == wlClusterFanout
	b.load = newQueryLoad(b.fleet, queryStream(b.o.workload, b.o.seed, streamLen), decode, b.epoch)
	b.warmUp()
	if err := b.measure(); err != nil {
		return err
	}
	if err := b.gate(); err != nil {
		return err
	}
	if b.o.trace {
		return b.replay()
	}
	return nil
}

// startFleet starts the workload's serving stack over l.
func (b *bench) startFleet(l *wlog.Log, walDir string) (*fleet, error) {
	switch b.o.workload {
	case wlClusterFanout:
		return startCluster(l)
	case wlIngestLive:
		if err := freshDir(walDir); err != nil {
			return nil, err
		}
		return startSingle(l, walDir)
	default:
		return startSingle(l, "")
	}
}

// setUp generates the base log and starts the serving stack setupReps
// times, keeping the last; each repetition is timed from generation to
// listeners ready.
func (b *bench) setUp() error {
	for i := 0; i < setupReps; i++ {
		if b.fleet != nil {
			if err := b.fleet.stop(); err != nil {
				return err
			}
			b.fleet, b.base = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		base, err := baseLog(b.o.seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		f, err := b.startFleet(base, filepath.Join(b.scratch, "wal"))
		if err != nil {
			return err
		}
		b.setups = append(b.setups, setupTiming{total: time.Since(t0), generate: t1.Sub(t0)})
		b.fleet, b.base = f, base
	}
	runtime.GC()
	b.heap = readRuntime().heapLive
	return nil
}

// warmUp fills the cache with the hot set where the workload has one, then
// runs the load untimed.
func (b *bench) warmUp() {
	if b.o.workload == wlHotRepeat || b.o.workload == wlIngestLive {
		for i := range b.load.distinct {
			b.warm = append(b.warm, b.load.sendOnce(int32(i)))
		}
	}
	b.warm = append(b.warm, b.load.run(b.clients, time.Now().Add(warmup))...)
}

// measure runs the timed window. On ingest-live the appender runs beside
// the readers for the whole window; the traced run of the other workloads
// runs the appends afterwards, as a separate probe against a single
// ingesting node.
func (b *bench) measure() error {
	m0, err := b.fleet.metrics()
	if err != nil {
		return err
	}
	window := time.Duration(b.o.seconds) * time.Second
	start := time.Now()
	until := start.Add(window)
	var appendDone chan []appendResult
	if b.o.workload == wlIngestLive {
		appendDone = make(chan []appendResult, 1)
		go func() { appendDone <- runAppender(b.fleet, b.appends, b.o.appendRate, start) }()
	}
	rt0 := readRuntime()
	if b.o.trace {
		// The first half runs untraced, the second half records spans as
		// it goes; the difference between the halves is the tracing
		// overhead.
		half := start.Add(window / 2)
		b.untr = b.load.run(b.clients, half)
		b.load.spans = b.spans
		b.window = b.load.run(b.clients, until)
		b.load.spans = nil
	} else {
		b.window = b.load.run(b.clients, until)
	}
	rt1 := readRuntime()
	b.windowD = time.Since(start)
	if appendDone != nil {
		b.appended = <-appendDone
	}
	b.rtDelta = rt1.sub(rt0)
	m1, err := b.fleet.metrics()
	if err != nil {
		return err
	}
	b.srvD = m1.sub(m0)
	if appendDone != nil {
		b.appendSrvD = b.srvD
	}
	return nil
}

// gate checks the answers of the run. On ingest-live, and in the traced
// run of every workload, it also measures the append path and recovery.
func (b *bench) gate() error {
	all := append(append([]result(nil), b.warm...), b.untr...)
	all = append(all, b.window...)
	var (
		wrong int
		first string
		err   error
	)
	switch b.o.workload {
	case wlColdMix:
		wrong, first, err = checkDigests(b.load, all, b.base, b.o.seed, false)
	case wlClusterFanout:
		wrong, first, err = checkDigests(b.load, all, b.base, b.o.seed, true)
	case wlHotRepeat:
		wrong, first, err = checkHot(b.fleet, b.load, all, b.base)
	}
	if err != nil {
		return err
	}
	b.noteWrong(wrong, first)
	if b.o.workload != wlIngestLive && !b.o.trace {
		return nil
	}

	// The append path: ingest-live's own fleet or, in the traced run of the
	// other workloads, a probe node.
	live := b.fleet
	walDir := filepath.Join(b.scratch, "wal")
	if b.o.workload != wlIngestLive {
		walDir = filepath.Join(b.scratch, "probe-wal")
		if err := freshDir(walDir); err != nil {
			return err
		}
		if live, err = startSingle(b.base, walDir); err != nil {
			return err
		}
		m0, err := live.metrics()
		if err != nil {
			live.stop()
			return err
		}
		b.appended = runAppender(live, b.appends, b.o.appendRate, time.Now())
		m1, err := live.metrics()
		if err != nil {
			live.stop()
			return err
		}
		b.appendSrvD = m1.sub(m0)
	}
	var acked []appendBatch
	for i := range b.appended {
		if b.acked(i) {
			acked = append(acked, b.appends[i])
		}
	}
	before, wrong, first, err := checkLive(live, b.base, acked)
	if err != nil {
		live.stop()
		return err
	}
	b.noteWrong(wrong, first)
	if live == b.fleet {
		b.fleet = nil
	}
	if err := live.stop(); err != nil {
		return err
	}
	// Recovery: reopen the same log on the WAL just written, until ready.
	for i := 0; i < recoveryReps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := startSingle(b.base, walDir)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		b.recovery = append(b.recovery, time.Since(t0).Seconds())
		if i == recoveryReps-1 {
			after, _, err := answers(f, liveQueries())
			if err == nil && !slices.Equal(before, after) {
				b.noteWrong(1, "answers after recovery differ from the answers before the close")
			}
			if serr := f.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
		} else if err := f.stop(); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	if n := len(b.appended); b.o.workload == wlIngestLive && n > 0 && b.appended[n-1].late > maxLag {
		b.invalid = fmt.Sprintf("the appender fell more than %v behind its schedule", maxLag)
	}
	return nil
}

// acked reports whether the server acknowledged every record of batch i.
func (b *bench) acked(i int) bool {
	a := b.appended[i]
	return a.status == http.StatusOK && a.records == len(b.appends[i].records)
}

func (b *bench) noteWrong(n int, first string) {
	b.wrong += n
	if b.firstWrong == "" {
		b.firstWrong = first
	}
}

// printEnv reports the conditions of the run.
func (b *bench) printEnv() {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", b.o.workload, b.o.seed, b.o.seconds, b.o.trace)
	appender := "none in this run (the traced run probes the append path after the window)"
	switch {
	case b.o.workload == wlIngestLive:
		appender = fmt.Sprintf("open loop %g instances/s beside the readers, %d batches", b.o.appendRate, len(b.appends))
	case len(b.appends) > 0:
		appender = fmt.Sprintf("open loop %g instances/s after the window on a separate ingesting node, %d batches", b.o.appendRate, len(b.appends))
	}
	fmt.Printf("env: clients=%d (closed loop) appender=%s\n", b.clients, appender)
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d cpu=%q go=%s fsync=always\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Printf("env: log=clinic instances=%d records=%d seed=%d\n", len(b.base.WIDs()), b.base.Len(), b.o.seed)
}

// queryTotals counts successful and failed query requests.
func queryTotals(rs []result) (ok, failed int) {
	for _, r := range rs {
		if r.ok() {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

func (b *bench) endToEndOutput() *output {
	var lat []float64
	for _, r := range b.window {
		if r.ok() {
			lat = append(lat, ms(r.dur))
		}
	}
	okN, failed := queryTotals(b.window)
	q := summarize(lat)
	completed := okN
	attempted := len(b.window)
	if b.o.workload == wlIngestLive {
		ap := b.appendSummary()
		completed += ap.N
		attempted += len(b.appended)
		failed += len(b.appended) - ap.N
	}
	failed += b.wrong
	var setupS, genS []float64
	for _, s := range b.setups {
		setupS = append(setupS, s.total.Seconds())
		genS = append(genS, s.generate.Seconds())
	}
	m := map[string]metric{
		"query_qps":          {float64(okN) / b.windowD.Seconds(), "1/s"},
		"query_p50_ms":       {q.P50, "ms"},
		"query_p99_ms":       {q.Tail, "ms"},
		"allocs_per_op":      {b.rtDelta.allocObjects / float64(max(completed, 1)), "objects"},
		"alloc_bytes_per_op": {b.rtDelta.allocBytes / float64(max(completed, 1)), "bytes"},
		"setup_s":            {median(setupS), "s"},
		"setup_heap_mb":      {b.heap / (1 << 20), "MB"},
	}
	fmt.Printf("query_qps %.4g 1/s (n=%d queries in %.3fs, %d clients)\n", m["query_qps"].Value, okN, b.windowD.Seconds(), b.clients)
	fmt.Printf("query_p50_ms %.4g ms (p50, n=%d)\n", q.P50, q.N)
	fmt.Printf("query_p99_ms %.4g ms (p%g, n=%d)\n", q.Tail, 100*q.TailQ, q.N)
	fmt.Printf("error_rate %.4g ratio (%d failed, refused or wrong of %d attempted)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	fmt.Printf("allocs_per_op %.4g objects (process-wide, %d completed requests)\n", m["allocs_per_op"].Value, completed)
	fmt.Printf("alloc_bytes_per_op %.4g bytes (process-wide, %d completed requests)\n", m["alloc_bytes_per_op"].Value, completed)
	fmt.Printf("setup_s %.4g s (median of %d; generate %.4g s)\n", median(setupS), len(setupS), median(genS))
	fmt.Printf("setup_heap_mb %.4g MB (live heap after set-up and GC)\n", m["setup_heap_mb"].Value)
	if b.o.workload == wlIngestLive {
		b.printAppendPath()
	}
	return b.finish(attempted, failed, m)
}

// appendSummary summarizes the latencies of the acknowledged appends.
func (b *bench) appendSummary() timing {
	var lat []float64
	for i, a := range b.appended {
		if b.acked(i) {
			lat = append(lat, ms(a.latency))
		}
	}
	return summarize(lat)
}

// lateSummary summarizes how late the appender sent each batch.
func (b *bench) lateSummary() timing {
	var late []float64
	for _, a := range b.appended {
		late = append(late, ms(a.late))
	}
	return summarize(late)
}

// printAppendPath reports the append-path figures. They are not gated:
// fsync latency on shared disks changes by an order of magnitude for
// seconds at a time, far beyond any bound a gate could hold.
func (b *bench) printAppendPath() {
	where := "beside the readers"
	if b.o.workload != wlIngestLive {
		where = "probe after the window"
	}
	ap, lt := b.appendSummary(), b.lateSummary()
	fmt.Printf("append_p50_ms %.4g ms (p50, n=%d, %s)\n", ap.P50, ap.N, where)
	fmt.Printf("append_p99_ms %.4g ms (p%g, n=%d, %s)\n", ap.Tail, 100*ap.TailQ, ap.N, where)
	fmt.Printf("recovery_s %.4g s (median of %d reopens)\n", median(b.recovery), len(b.recovery))
	fmt.Printf("loadgen.late_p99_ms %.4g ms (p%g, n=%d)\n", lt.Tail, 100*lt.TailQ, lt.N)
}

// finish reports the gate and validity verdicts and builds the output.
func (b *bench) finish(attempted, failed int, m map[string]metric) *output {
	if b.wrong > 0 {
		fmt.Printf("gate: FAIL, %d wrong answers; first: %s\n", b.wrong, b.firstWrong)
	} else {
		fmt.Println("gate: ok, every checked answer matches its reference")
	}
	if b.invalid != "" {
		fmt.Printf("run: INVALID, %s\n", b.invalid)
	}
	return &output{Correct: b.wrong == 0 && b.invalid == "", Attempted: max(attempted, 1), Failed: failed, Metrics: m}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a snapshot of the Go runtime's process-wide counters.
type runtimeSample struct {
	allocObjects, allocBytes float64
	gcCPU, totalCPU          float64
	heapLive                 float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocObjects: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3), heapLive: v(4)}
}

// sub returns the counters' change since b, with a's live heap.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
		heapLive:     a.heapLive,
	}
}

// metricsDelta is the change of the server's counters across a phase.
type metricsDelta struct {
	hits, misses, evictions, shed               float64
	walAppends, walBytes, walFsyncs, invalidate float64
}

func (m metricsDoc) sub(o metricsDoc) metricsDelta {
	d := metricsDelta{
		hits:      float64(m.CacheHits) - float64(o.CacheHits),
		misses:    float64(m.CacheMisses) - float64(o.CacheMisses),
		evictions: float64(m.CacheEvictions) - float64(o.CacheEvictions),
		shed:      float64(m.QueriesShed) - float64(o.QueriesShed),
	}
	if m.Ingest != nil && o.Ingest != nil {
		d.walAppends = float64(m.Ingest.WALAppends) - float64(o.Ingest.WALAppends)
		d.walBytes = float64(m.Ingest.WALBytes) - float64(o.Ingest.WALBytes)
		d.walFsyncs = float64(m.Ingest.WALFsyncs) - float64(o.Ingest.WALFsyncs)
		d.invalidate = float64(m.Ingest.CacheInvalidations) - float64(o.Ingest.CacheInvalidations)
	}
	return d
}
