package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"wlq/internal/core/eval"
)

// Sharded-execution suite for the HTTP service: Config.Shards splits every
// query into isolated wid-range failure domains, and the partial-result
// contract (206 degraded / 502 strict, never cached) rides on the same
// chaos seams as the rest of the suite. Test names carry Shard/Chaos so the
// CI race step (`go test -race -run 'Chaos|Fault|Shard'`) picks them up.

// shardedChaosServer builds a 16-instance log served with 4 wid-range
// shards (wids 1–4, 5–8, 9–12, 13–16), so a single injected fault maps to
// exactly one lost shard.
func shardedChaosServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	s := New(cfg)
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 16, 3)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedQueryCompleteMatchesUnsharded(t *testing.T) {
	plain := newChaosServer(t, Config{}, 16, 3)
	sharded := shardedChaosServer(t, Config{})

	var want, got queryResponse
	if rec := postQuery(t, plain, `{"log":"chaos","query":"A -> B"}`, &want); rec.Code != http.StatusOK {
		t.Fatalf("unsharded: %d: %s", rec.Code, rec.Body)
	}
	if rec := postQuery(t, sharded.Handler(), `{"log":"chaos","query":"A -> B"}`, &got); rec.Code != http.StatusOK {
		t.Fatalf("sharded: %d: %s", rec.Code, rec.Body)
	}
	if got.Count != want.Count || len(got.Incidents) != len(want.Incidents) {
		t.Fatalf("sharded count %d != unsharded %d", got.Count, want.Count)
	}
	for i := range want.Incidents {
		if got.Incidents[i].WID != want.Incidents[i].WID {
			t.Fatalf("incident %d differs: %+v vs %+v", i, got.Incidents[i], want.Incidents[i])
		}
	}
	if got.Partial {
		t.Fatal("fault-free sharded response marked partial")
	}
	if got.Completeness == nil || !got.Completeness.Complete || got.Completeness.Shards != 4 {
		t.Fatalf("completeness = %+v, want 4/4 complete", got.Completeness)
	}

	// Complete sharded results are cacheable: the repeat is a hit.
	var again queryResponse
	postQuery(t, sharded.Handler(), `{"log":"chaos","query":"A -> B"}`, &again)
	if !again.Cached {
		t.Fatal("complete sharded result was not cached")
	}
}

func TestShardedQueryTraceHasShardSpans(t *testing.T) {
	s := shardedChaosServer(t, Config{})
	var resp queryResponse
	if rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","trace":true}`, &resp); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Trace == nil || resp.Trace.Spans == nil {
		t.Fatal("traced sharded query returned no span tree")
	}
	raw, err := json.Marshal(resp.Trace.Spans)
	if err != nil {
		t.Fatal(err)
	}
	// One span per shard, named "shard <id>".
	for _, name := range []string{`"shard 0"`, `"shard 1"`, `"shard 2"`, `"shard 3"`} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("span tree missing %q:\n%s", name, raw)
		}
	}
}

func TestChaosShardFaultStrictModeIs502(t *testing.T) {
	s := shardedChaosServer(t, Config{})
	// Persistent fault in the last shard's wid range (13–16).
	eval.SetEvalHook(func(wid uint64) {
		if wid >= 13 {
			panic("injected shard fault")
		}
	})
	defer eval.SetEvalHook(nil)

	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("strict partial status %d, want 502: %s", rec.Code, rec.Body)
	}
	doc := decodeError(t, rec)
	if doc.Completeness == nil {
		t.Fatalf("502 envelope missing completeness: %s", rec.Body)
	}
	c := doc.Completeness
	if c.Complete || c.Succeeded != 3 || c.Failed != 1 || c.ExcludedWIDs != 4 {
		t.Fatalf("completeness = %+v, want 3/4 with 4 wids excluded", c)
	}
	if len(c.Failures) != 1 || c.Failures[0].WIDMin != 13 || c.Failures[0].WIDMax != 16 {
		t.Fatalf("failures = %+v, want the 13–16 range named", c.Failures)
	}
}

func TestChaosShardFaultDegradedModeIs206(t *testing.T) {
	s := shardedChaosServer(t, Config{})
	eval.SetEvalHook(func(wid uint64) {
		if wid >= 13 {
			panic("injected shard fault")
		}
	})
	defer eval.SetEvalHook(nil)

	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("degraded partial status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode 206 body: %v\n%s", err, rec.Body)
	}
	if !resp.Partial || resp.Completeness == nil || resp.Completeness.Complete {
		t.Fatalf("206 response not marked partial: %+v", resp)
	}
	// The surviving shards' incidents are present — and none from the lost
	// wid range.
	if resp.Count == 0 {
		t.Fatal("partial response carries no incidents from the surviving shards")
	}
	for _, inc := range resp.Incidents {
		if inc.WID >= 13 {
			t.Fatalf("incident from the excluded wid range leaked into the partial result: %+v", inc)
		}
	}
	cause := resp.Completeness.Failures[0].Cause
	if !strings.Contains(cause, "panic") {
		t.Fatalf("completeness cause %q does not name the fault", cause)
	}
}

// TestChaosPartialResultNeverCached is the cache-safety regression: a
// partial result must not be served from the cache after the shards
// recover — "no incidents in wids 13–16" and "wids 13–16 were not
// evaluated" are different answers.
func TestChaosPartialResultNeverCached(t *testing.T) {
	s := shardedChaosServer(t, Config{})
	eval.SetEvalHook(func(wid uint64) {
		if wid >= 13 {
			panic("injected shard fault")
		}
	})

	var partial queryResponse
	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 0 {
		t.Fatalf("partial result entered the cache (%d entries)", s.cache.len())
	}

	// Fault gone: the same query must be re-evaluated in full, not answered
	// from a poisoned cache entry.
	eval.SetEvalHook(nil)
	var healed queryResponse
	if rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, &healed); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status %d: %s", rec.Code, rec.Body)
	}
	if healed.Cached {
		t.Fatal("post-recovery response claims a cache hit: the partial result was cached")
	}
	if healed.Partial || healed.Count <= partial.Count {
		t.Fatalf("post-recovery result not complete: partial=%v count=%d (was %d)",
			healed.Partial, healed.Count, partial.Count)
	}
	// And the complete result now IS cached.
	var again queryResponse
	postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, &again)
	if !again.Cached {
		t.Fatal("complete post-recovery result was not cached")
	}
}

func TestChaosShardedMetricsCounters(t *testing.T) {
	s := shardedChaosServer(t, Config{})
	eval.SetEvalHook(func(wid uint64) {
		if wid >= 13 {
			panic("injected shard fault")
		}
	})
	defer eval.SetEvalHook(nil)
	postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)

	var doc metricsDoc
	if rec := getJSON(t, s.Handler(), "/metrics", &doc); rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if doc.ShardedQueries != 1 || doc.ShardsFailed != 1 || doc.PartialResults != 1 || doc.WIDsExcluded != 4 {
		t.Fatalf("sharded counters = sharded=%d failed=%d partial=%d excluded=%d, want 1/1/1/4",
			doc.ShardedQueries, doc.ShardsFailed, doc.PartialResults, doc.WIDsExcluded)
	}
	// The prometheus exposition carries the same families.
	rec := getJSON(t, s.Handler(), "/metrics?format=prometheus", nil)
	body := rec.Body.String()
	for _, family := range []string{
		"wlq_sharded_queries_total 1",
		"wlq_shards_failed_total 1",
		"wlq_partial_results_total 1",
		"wlq_wids_excluded_total 4",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("prometheus exposition missing %q", family)
		}
	}
	// A shard runs once, so there is no retry, skip or breaker family.
	for _, family := range []string{"wlq_shard_breakers_open", "wlq_shard_retries_total", "wlq_shards_skipped_total"} {
		if strings.Contains(body, family) {
			t.Errorf("prometheus exposition still carries %q", family)
		}
	}
}

// TestChaosRetryAfterClamp covers the 429 backoff hint: sub-second advisory
// delays must not truncate to "Retry-After: 0" (an instant-retry stampede);
// the value is ceil'd to whole seconds, floored at 1, and jittered by at
// most one extra second.
func TestChaosRetryAfterClamp(t *testing.T) {
	cases := []struct {
		d        time.Duration
		min, max int
	}{
		{0, 1, 2},
		{time.Millisecond, 1, 2},
		{999 * time.Millisecond, 1, 2},
		{time.Second, 1, 2},
		{1500 * time.Millisecond, 2, 3},
		{5 * time.Second, 5, 6},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			got := retryAfterSeconds(c.d)
			if got < c.min || got > c.max {
				t.Fatalf("retryAfterSeconds(%v) = %d, want in [%d, %d]", c.d, got, c.min, c.max)
			}
		}
	}
}
