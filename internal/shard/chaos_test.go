package shard

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// buildLog builds one workflow instance per entry of pairs, instance i
// holding pairs[i] interleaved A/B activity pairs. Builder wids are
// sequential from 1, so 4 shards over 16 instances are exactly wids 1–4,
// 5–8, 9–12, 13–16.
func buildLog(t *testing.T, pairs []int) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for _, n := range pairs {
		wid := b.Start()
		for j := 0; j < n; j++ {
			if err := b.Emit(wid, "A", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.Emit(wid, "B", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.End(wid); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func uniformPairs(instances, n int) []int {
	p := make([]int, instances)
	for i := range p {
		p[i] = n
	}
	return p
}

// widHook installs an eval hook that panics persistently for every wid
// admitted by match, and removes it on test cleanup.
func widHook(t *testing.T, match func(wid uint64) bool) {
	t.Helper()
	eval.SetEvalHook(func(wid uint64) {
		if match(wid) {
			panic("chaos: injected shard fault")
		}
	})
	t.Cleanup(func() { eval.SetEvalHook(nil) })
}

// filterBelow keeps the incidents of wids < cut — the expected surviving
// result when the top shard is lost.
func filterBelow(s *incident.Set, cut uint64) *incident.Set {
	var keep []incident.Incident
	for _, o := range s.Incidents() {
		if o.WID() < cut {
			keep = append(keep, o)
		}
	}
	return incident.NewSet(keep...)
}

// TestShardChaosEqualUnsharded is the no-fault half of the acceptance
// criterion: the sharded result is byte-identical to the single-domain
// evaluator's — for all four operators on the hand-built log, and for
// random patterns over generated logs at shard counts from one domain to
// more domains than instances.
func TestShardChaosEqualUnsharded(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	for _, q := range []string{"A . B", "A -> B", "A | B", "A & B"} {
		p := pattern.MustParse(q)
		want, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
		if err != nil {
			t.Fatalf("%s: unsharded eval: %v", q, err)
		}
		var stats eval.QueryStats
		got, comp, err := Execute(context.Background(), ix, 4, p, eval.Options{}, &stats)
		if err != nil {
			t.Fatalf("%s: sharded eval: %v", q, err)
		}
		if !comp.Complete || comp.Succeeded != 4 || comp.Failed != 0 || comp.Skipped != 0 || comp.Retries != 0 {
			t.Fatalf("%s: completeness = %+v, want 4/4 complete", q, comp)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: sharded result differs from unsharded:\n got %s\nwant %s", q, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: sharded rendering differs from unsharded", q)
		}
		if stats.Workers != 4 {
			t.Fatalf("%s: stats = %+v, want 4 shards", q, stats)
		}
		if want.Len() > 0 && stats.Incidents != want.Len() {
			t.Fatalf("%s: stats.Incidents = %d, want %d", q, stats.Incidents, want.Len())
		}
	}

	const instances = 24
	for seed := int64(1); seed <= 3; seed++ {
		l := gen.MustRandomLog(gen.LogParams{Instances: instances, MeanLength: 6, Alphabet: gen.Alphabet(4), Seed: seed})
		gix := eval.NewIndex(l)
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 6; q++ {
			p := gen.RandomPattern(rng, gen.PatternParams{Operators: 1 + q%3, Alphabet: gen.Alphabet(4), NegateProb: 0.2})
			for _, k := range []int{1, 2, 3, 7, instances + 5} {
				for _, strategy := range []eval.Strategy{eval.StrategyMerge, eval.StrategyNaive} {
					assertShardedEqual(t, gix, k, p, strategy)
				}
			}
		}
	}
}

// assertShardedEqual checks that a k-shard evaluation is complete and
// byte-identical to the unsharded evaluator under the given strategy.
func assertShardedEqual(t *testing.T, ix *eval.Index, k int, p pattern.Node, strategy eval.Strategy) {
	t.Helper()
	opts := eval.Options{Strategy: strategy}
	want := eval.New(ix, opts).Eval(p)
	got, comp, err := Execute(context.Background(), ix, k, p, opts, nil)
	if err != nil {
		t.Fatalf("%s k=%d %v: %v", p, k, strategy, err)
	}
	if !comp.Complete || comp.Shards != len(Partition(ix.WIDs(), k)) {
		t.Fatalf("%s k=%d %v: completeness = %+v, want complete over every shard", p, k, strategy, comp)
	}
	if !got.Equal(want) || got.String() != want.String() {
		t.Fatalf("%s k=%d %v: sharded result differs from unsharded:\n got %s\nwant %s",
			p, k, strategy, got, want)
	}
}

// TestShardChaosPanicShardPartial is the fault half of the acceptance
// criterion: one of four shards panics persistently; the query survives,
// returns the other shards' incidents, and Completeness names the excluded
// wid range and the cause.
func TestShardChaosPanicShardPartial(t *testing.T) {
	p := pattern.MustParse("A -> B")
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	full, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := filterBelow(full, 13) // shard 3 (wids 13–16) is lost

	widHook(t, func(wid uint64) bool { return wid >= 13 })

	var stats eval.QueryStats
	got, comp, err := Execute(context.Background(), ix, 4, p, eval.Options{}, &stats)
	if err != nil {
		t.Fatalf("Execute returned error %v; partial results must not be errors", err)
	}
	if got == nil || !got.Equal(want) {
		t.Fatalf("partial result = %v, want the three surviving shards' incidents %v", got, want)
	}
	if comp.Complete {
		t.Fatal("Completeness.Complete = true with a failed shard")
	}
	if comp.Shards != 4 || comp.Attempted != 4 || comp.Succeeded != 3 ||
		comp.Failed != 1 || comp.Skipped != 0 {
		t.Fatalf("completeness counts = %+v, want 3 of 4 succeeded, 1 failed", comp)
	}
	if comp.Retries != 0 || comp.ExcludedWIDs != 4 {
		t.Fatalf("retries=%d excluded=%d, want no retries and 4 excluded wids", comp.Retries, comp.ExcludedWIDs)
	}
	if len(comp.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one entry", comp.Failures)
	}
	f := comp.Failures[0]
	if f.Shard != 3 || f.WIDMin != 13 || f.WIDMax != 16 || f.WIDs != 4 {
		t.Fatalf("failure names shard %d wids %d–%d (%d), want shard 3 wids 13–16 (4)",
			f.Shard, f.WIDMin, f.WIDMax, f.WIDs)
	}
	// A shard runs once: a deterministic fault would replay on a retry.
	if f.Attempts != 1 || f.Skipped || f.Ranges != nil {
		t.Fatalf("failure attempts=%d skipped=%v ranges=%v, want 1 attempt, not skipped, exact envelope",
			f.Attempts, f.Skipped, f.Ranges)
	}
	if !strings.Contains(f.Cause, "panic") {
		t.Fatalf("failure cause %q does not name the panic", f.Cause)
	}
	if stats.Workers != 4 || stats.Instances != 12 {
		t.Fatalf("stats = %+v, want 4 shards and the 12 surviving instances", stats)
	}
}

// TestShardChaosBudgetSlicePartial trips one shard's budget slice: the
// instances of the top shard are two orders of magnitude heavier, the
// output budget divides evenly across shards, and only the heavy shard
// exhausts its slice.
func TestShardChaosBudgetSlicePartial(t *testing.T) {
	p := pattern.MustParse("A -> B")
	// wids 1–12 hold 2 A/B pairs (3 sequential incidents each); wids 13–16
	// hold 40 pairs (820 incidents each).
	pairs := append(uniformPairs(12, 2), 40, 40, 40, 40)
	ix := eval.NewIndex(buildLog(t, pairs))
	full, err := eval.New(ix, eval.Options{}).EvalParallelCtx(context.Background(), p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := filterBelow(full, 13)

	// 400 outputs across 4 shards = 100 per slice: the light shards emit 12
	// each, the heavy shard trips on its first instance (820 > 100).
	opts := eval.Options{Budget: resilience.Budget{MaxOutputs: 400}}
	var stats eval.QueryStats
	got, comp, err := Execute(context.Background(), ix, 4, p, opts, &stats)
	if err != nil {
		t.Fatalf("Execute returned error %v; partial results must not be errors", err)
	}
	if !got.Equal(want) {
		t.Fatalf("partial result = %v, want the light shards' incidents %v", got, want)
	}
	if comp.Complete || comp.Succeeded != 3 || comp.Failed != 1 || comp.ExcludedWIDs != 4 {
		t.Fatalf("completeness = %+v, want 3/4 with the heavy shard excluded", comp)
	}
	f := comp.Failures[0]
	if f.WIDMin != 13 || f.WIDMax != 16 {
		t.Fatalf("excluded range %d–%d, want 13–16", f.WIDMin, f.WIDMax)
	}
	if !strings.Contains(f.Cause, "budget") {
		t.Fatalf("failure cause %q does not name the budget", f.Cause)
	}
	if f.Attempts != 1 || comp.Retries != 0 {
		t.Fatalf("attempts=%d retries=%d, want a single attempt and no retries", f.Attempts, comp.Retries)
	}
}

// TestShardChaosAllShardsLost: when nothing survives there is no partial
// result to return — Execute reports the first shard error.
func TestShardChaosAllShardsLost(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(8, 2)))
	widHook(t, func(uint64) bool { return true })
	set, comp, err := Execute(context.Background(), ix, 4, pattern.MustParse("A . B"), eval.Options{}, nil)
	if err == nil || set != nil {
		t.Fatalf("Execute = (%v, %v), want a hard error when zero shards survive", set, err)
	}
	if comp.Succeeded != 0 || comp.Failed != 4 {
		t.Fatalf("completeness = %+v, want all 4 shards failed", comp)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to a PanicError", err)
	}
}

// TestShardChaosContextCancel: a dead caller context is a query-level
// failure, not a shard fault — the query errors instead of answering
// partially.
func TestShardChaosContextCancel(t *testing.T) {
	ix := eval.NewIndex(buildLog(t, uniformPairs(16, 3)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set, _, err := Execute(ctx, ix, 4, pattern.MustParse("A -> B"), eval.Options{}, nil)
	if err != context.Canceled || set != nil {
		t.Fatalf("Execute on cancelled ctx = (%v, %v), want context.Canceled", set, err)
	}
}
