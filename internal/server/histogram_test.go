package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wlq"
	"wlq/internal/cluster"
)

// Exposition of the three latency histograms — request latency, WAL fsync
// latency, and the coordinator's per-worker request durations — pinned line
// by line for known observations.

// promLines returns the exposition lines of the named families, in order.
func promLines(body string, families ...string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		for _, f := range families {
			if strings.HasPrefix(line, f+"_bucket") || strings.HasPrefix(line, f+"_sum") ||
				strings.HasPrefix(line, f+"_count") || strings.HasPrefix(line, "# HELP "+f+" ") ||
				strings.HasPrefix(line, "# TYPE "+f+" ") {
				out = append(out, line)
			}
		}
	}
	return out
}

func assertLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s exposition:\n got:\n%s\nwant:\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func scrapePrometheus(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := getJSON(t, h, "/metrics?format=prometheus", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus scrape status %d", rec.Code)
	}
	return rec.Body.String()
}

func TestHistogramExpositionQueryAndFsync(t *testing.T) {
	s := New(Config{Ingest: true, WALDir: t.TempDir()})
	t.Cleanup(func() { s.Close() })
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond, 20 * time.Second} {
		s.metrics.observeLatency(d)
	}
	for _, d := range []time.Duration{10 * time.Microsecond, 40 * time.Microsecond, 2 * time.Millisecond, 2 * time.Second} {
		s.metrics.fsyncHist.Observe(d)
	}
	body := scrapePrometheus(t, s.Handler())

	assertLines(t, "query latency", promLines(body, "wlq_query_duration_seconds"), []string{
		`# HELP wlq_query_duration_seconds Request latency, all paths (success, error, timeout).`,
		`# TYPE wlq_query_duration_seconds histogram`,
		`wlq_query_duration_seconds_bucket{le="0.0001"} 2`,
		`wlq_query_duration_seconds_bucket{le="0.00025"} 2`,
		`wlq_query_duration_seconds_bucket{le="0.0005"} 3`,
		`wlq_query_duration_seconds_bucket{le="0.001"} 3`,
		`wlq_query_duration_seconds_bucket{le="0.0025"} 3`,
		`wlq_query_duration_seconds_bucket{le="0.005"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.01"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.025"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.05"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.1"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.25"} 4`,
		`wlq_query_duration_seconds_bucket{le="0.5"} 4`,
		`wlq_query_duration_seconds_bucket{le="1"} 4`,
		`wlq_query_duration_seconds_bucket{le="2.5"} 4`,
		`wlq_query_duration_seconds_bucket{le="5"} 4`,
		`wlq_query_duration_seconds_bucket{le="10"} 4`,
		`wlq_query_duration_seconds_bucket{le="+Inf"} 5`,
		`wlq_query_duration_seconds_sum 20.0034`,
		`wlq_query_duration_seconds_count 5`,
	})
	assertLines(t, "fsync latency", promLines(body, "wlq_ingest_fsync_duration_seconds"), []string{
		`# HELP wlq_ingest_fsync_duration_seconds WAL fsync latency.`,
		`# TYPE wlq_ingest_fsync_duration_seconds histogram`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="1e-05"} 1`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="2.5e-05"} 1`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="5e-05"} 2`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.0001"} 2`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.00025"} 2`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.0005"} 2`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.001"} 2`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.0025"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.005"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.01"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.025"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.05"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.1"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.25"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="0.5"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="1"} 3`,
		`wlq_ingest_fsync_duration_seconds_bucket{le="+Inf"} 4`,
		`wlq_ingest_fsync_duration_seconds_sum 2.00205`,
		`wlq_ingest_fsync_duration_seconds_count 4`,
	})

	// The JSON document carries the fsync histogram's scalar summary.
	var doc metricsDoc
	getJSON(t, s.Handler(), "/metrics", &doc)
	if doc.Ingest == nil || doc.Ingest.FsyncCount != 4 || doc.Ingest.FsyncSumUS != 2002050 {
		t.Fatalf("ingest fsync summary = %+v", doc.Ingest)
	}
}

// delayTransport serves worker requests in process, after a fixed per-host
// delay: the coordinator's round-trip clock sees at least that delay.
type delayTransport struct {
	workers map[string]http.Handler
	delay   map[string]time.Duration
}

func (d delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := d.workers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("unknown worker %q", req.URL.Host)
	}
	time.Sleep(d.delay[req.URL.Host])
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// TestHistogramExpositionWorkerDurations: two queries fan out to two workers
// delayed 60ms and 300ms, so each worker's two round trips land in one known
// bucket — (50ms, 100ms] and (250ms, 500ms] — with room for scheduling
// noise. Bucket and count lines are exact; a sum is bounded by its bucket.
func TestHistogramExpositionWorkerDurations(t *testing.T) {
	l := chaosLog(t, 16, 2)
	tr := delayTransport{
		workers: map[string]http.Handler{},
		delay:   map[string]time.Duration{"w1.test": 60 * time.Millisecond, "w2.test": 300 * time.Millisecond},
	}
	for _, host := range []string{"w1.test", "w2.test"} {
		w, _ := startWorker(t, "chaos", l)
		tr.workers[host] = w.Handler()
	}
	urls := []string{"http://w1.test", "http://w2.test"}
	wids := make([]uint64, 16)
	for i := range wids {
		wids[i] = uint64(i + 1)
	}
	for i, part := range cluster.NewRing(urls, 0).Assignments(wids) {
		if len(part) == 0 {
			t.Fatalf("worker %s owns no wids; every worker must be contacted", urls[i])
		}
	}
	coord := New(Config{
		Cluster:       &cluster.Config{Workers: urls, Transport: tr},
		ProbeInterval: -1,
		CacheSize:     -1,
	})
	if err := coord.AddLog("chaos", "builtin:chaos", l); err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	for i := 0; i < 2; i++ {
		if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, rec.Code, rec.Body)
		}
	}

	body := scrapePrometheus(t, h)
	got := promLines(body, "wlq_worker_query_duration_seconds")
	sums := map[string]float64{}
	var rest []string
	for _, line := range got {
		if strings.HasPrefix(line, "wlq_worker_query_duration_seconds_sum{") {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad sum line %q", line)
			}
			sums[strings.TrimPrefix(fields[0], "wlq_worker_query_duration_seconds_sum")] = v
			continue
		}
		rest = append(rest, line)
	}
	bucketLines := func(worker string, counts [12]int) []string {
		les := []string{"0.001", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "+Inf"}
		out := make([]string, 0, len(les)+1)
		for i, le := range les {
			out = append(out, fmt.Sprintf(`wlq_worker_query_duration_seconds_bucket{worker=%q,le=%q} %d`, worker, le, counts[i]))
		}
		return append(out, fmt.Sprintf(`wlq_worker_query_duration_seconds_count{worker=%q} %d`, worker, counts[len(counts)-1]))
	}
	want := []string{
		`# HELP wlq_worker_query_duration_seconds Coordinator-observed worker request round-trip time, per worker.`,
		`# TYPE wlq_worker_query_duration_seconds histogram`,
	}
	want = append(want, bucketLines("http://w1.test", [12]int{0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2})...)
	want = append(want, bucketLines("http://w2.test", [12]int{0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2})...)
	assertLines(t, "worker durations", rest, want)
	for label, bounds := range map[string][2]float64{
		`{worker="http://w1.test"}`: {0.12, 0.2},
		`{worker="http://w2.test"}`: {0.6, 1.0},
	} {
		v, ok := sums[label]
		if !ok || v < bounds[0] || v > bounds[1] {
			t.Fatalf("sum%s = %v (present %v), want in %v", label, v, ok, bounds)
		}
	}

	var doc metricsDoc
	getJSON(t, h, "/metrics", &doc)
	if doc.Cluster == nil || len(doc.Cluster.WorkerDurations) != 2 {
		t.Fatalf("worker_durations = %+v", doc.Cluster)
	}
	wantJSON := []struct {
		worker  string
		buckets []uint64
		minUS   int64
		maxUS   int64
	}{
		{"http://w1.test", []uint64{0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}, 120_000, 200_000},
		{"http://w2.test", []uint64{0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}, 600_000, 1_000_000},
	}
	for i, w := range wantJSON {
		wd := doc.Cluster.WorkerDurations[i]
		if wd.Worker != w.worker || fmt.Sprint(wd.Buckets) != fmt.Sprint(w.buckets) || wd.Count != 2 ||
			wd.SumUS < w.minUS || wd.SumUS > w.maxUS {
			t.Fatalf("worker_durations[%d] = %+v, want worker %s buckets %v count 2 sum in [%d, %d]",
				i, wd, w.worker, w.buckets, w.minUS, w.maxUS)
		}
	}
}
