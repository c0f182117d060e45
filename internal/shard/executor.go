package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// DefaultMaxAttempts is the per-shard evaluation attempt cap per query
// (1 initial try + retries) when Config.MaxAttempts is zero.
const DefaultMaxAttempts = 3

// Config tunes a sharded executor. The zero value shards into GOMAXPROCS
// contiguous wid ranges with 3 attempts per shard, default backoff, and a
// 5-failure/30s circuit breaker per shard.
type Config struct {
	// Shards is the number of failure domains (0 = GOMAXPROCS; the actual
	// count is capped by the instance count).
	Shards int
	// Policy assigns wids to shards (default PolicyRange).
	Policy Policy
	// MaxAttempts caps evaluation attempts per shard per query, the first
	// try included (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Backoff schedules the delay between a shard's attempts.
	Backoff Backoff
	// BreakerThreshold opens a shard's breaker after this many consecutive
	// failed attempts (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// ShardTimeout, when positive, deadlines each shard attempt
	// independently of the query context's deadline.
	ShardTimeout time.Duration
	// Sleep waits between attempts (nil = time.Sleep). Tests inject a
	// recording no-op so backoff is asserted, not waited for.
	Sleep func(time.Duration)
	// Rand draws the jitter uniform in [0,1) (nil = math/rand.Float64).
	Rand func() float64
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// ShardOutcome describes one shard excluded from a query's result: which
// wids are missing, how hard the executor tried, and why it gave up.
type ShardOutcome struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// WIDMin/WIDMax bound the excluded wids; under PolicyRange the whole
	// interval is excluded, under PolicyHash it is the envelope of the
	// scattered members.
	WIDMin uint64 `json:"wid_min"`
	WIDMax uint64 `json:"wid_max"`
	// WIDs is the number of workflow instances excluded.
	WIDs int `json:"wids"`
	// Attempts is how many evaluation attempts were made (0 when the
	// circuit breaker skipped the shard outright).
	Attempts int `json:"attempts"`
	// Cause is the final error in human-readable form.
	Cause string `json:"cause"`
	// Skipped is true when an open circuit breaker excluded the shard
	// without any attempt this query.
	Skipped bool `json:"skipped,omitempty"`
	// Worker names the remote node that owned the shard, for distributed
	// execution (internal/cluster); empty for in-process shards.
	Worker string `json:"worker,omitempty"`
	// Ranges lists the exact excluded wid runs when the excluded set is
	// scattered (hash placement) and the envelope alone would overstate the
	// loss. Empty when WIDMin–WIDMax already is the exact interval.
	Ranges []WIDRange `json:"wid_ranges,omitempty"`
}

// WIDRange is one contiguous run of workflow instance ids, inclusive.
type WIDRange struct {
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
}

// MaxOutcomeRanges caps ShardOutcome.Ranges: past this many runs the exact
// enumeration stops paying for itself in a completeness document, and the
// envelope plus the wid count carries the information.
const MaxOutcomeRanges = 64

// RangesOf run-length-encodes an ascending wid slice into inclusive ranges.
// It returns nil when the encoding would exceed MaxOutcomeRanges runs (the
// caller falls back to the min/max envelope) or when the slice is a single
// contiguous run already described by the envelope.
func RangesOf(wids []uint64) []WIDRange {
	if len(wids) == 0 {
		return nil
	}
	ranges := []WIDRange{{Min: wids[0], Max: wids[0]}}
	for _, wid := range wids[1:] {
		last := &ranges[len(ranges)-1]
		if wid == last.Max+1 {
			last.Max = wid
			continue
		}
		if len(ranges) == MaxOutcomeRanges {
			return nil
		}
		ranges = append(ranges, WIDRange{Min: wid, Max: wid})
	}
	if len(ranges) == 1 {
		return nil // the envelope is already exact
	}
	return ranges
}

// Completeness is the partial-result contract: exactly which slices of the
// log a merged incident set covers. A Complete result is byte-identical to
// the unsharded evaluator's; an incomplete one names every excluded wid
// range and its cause, so "no incidents in wids 40–60" is distinguishable
// from "wids 40–60 were never evaluated".
type Completeness struct {
	// Complete is true when every shard succeeded.
	Complete bool `json:"complete"`
	// Shards is the number of failure domains the log partitioned into.
	Shards int `json:"shards"`
	// Attempted counts shards on which at least one attempt ran.
	Attempted int `json:"shards_attempted"`
	// Succeeded counts shards whose incidents are in the merged result.
	Succeeded int `json:"shards_succeeded"`
	// Failed counts shards excluded after exhausting their attempts.
	Failed int `json:"shards_failed"`
	// Skipped counts shards excluded by an open circuit breaker.
	Skipped int `json:"shards_skipped"`
	// Retries counts re-attempts across all shards.
	Retries int `json:"retries"`
	// ExcludedWIDs is the total number of workflow instances not covered
	// by the result.
	ExcludedWIDs int `json:"excluded_wids"`
	// Failures details every excluded shard, ascending by shard id.
	Failures []ShardOutcome `json:"failures,omitempty"`
}

// Executor runs queries shard by shard over one immutable log index. It is
// safe for concurrent use and meant to be long-lived: the per-shard
// circuit breakers accumulate failure history across queries, which is
// what lets a persistently poisoned shard be skipped instead of re-probed
// by every request.
type Executor struct {
	ix       *eval.Index
	cfg      Config
	shards   []Shard
	breakers []*Breaker
}

// NewExecutor partitions the index's instances and creates the per-shard
// breakers. The index must be immutable for the executor's lifetime (the
// same contract EvalParallel relies on).
func NewExecutor(ix *eval.Index, cfg Config) *Executor {
	cfg = cfg.withDefaults()
	shards := Partition(ix.WIDs(), cfg.Shards, cfg.Policy)
	breakers := make([]*Breaker, len(shards))
	for i := range breakers {
		breakers[i] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	return &Executor{ix: ix, cfg: cfg, shards: shards, breakers: breakers}
}

// Shards returns the partition (callers must not modify it).
func (x *Executor) Shards() []Shard { return x.shards }

// OpenBreakers counts shards whose breaker is not closed — the live
// "poisoned shards" gauge exported at /metrics.
func (x *Executor) OpenBreakers() int {
	open := 0
	for _, b := range x.breakers {
		if b.State() != BreakerClosed {
			open++
		}
	}
	return open
}

// Retryable classifies an attempt error: panics (genuine bugs, or injected
// faults surfacing through the eval hook seam) are transient and worth a
// backed-off retry; budget errors are deterministic — the same work would
// trip the same slice again — and context errors mean the caller is gone.
func Retryable(err error) bool {
	var pe *resilience.PanicError
	return errors.As(err, &pe)
}

// sliceBudget divides the query budget across n shards; the arithmetic
// lives on resilience.Budget so the cluster coordinator shares it.
func sliceBudget(b resilience.Budget, n int) resilience.Budget {
	return b.Slice(n)
}

// shardResult is one shard's terminal outcome within a query.
type shardResult struct {
	set      *incident.Set
	stats    eval.QueryStats
	attempts int
	retries  int
	err      error // nil on success
	skipped  bool  // breaker refused; no attempt ran
}

// Execute evaluates p across all shards concurrently, each in its own
// failure domain, and merges the surviving shards' incidents.
//
// opts configures the underlying evaluation exactly as eval.New, except
// that opts.Budget is sliced per shard (work dimensions divided evenly;
// wall time shared). A non-nil opts.Meter aggregates across shards — the
// node counters are atomic.
//
// The returned error is non-nil only when the whole query is lost: the
// context was cancelled, or no shard produced a result. Otherwise Execute
// returns the merged set with a Completeness describing coverage; callers
// choose whether an incomplete result is an answer (degraded mode) or an
// error (strict mode). With no faults the merged set equals the unsharded
// evaluator's output exactly.
func (x *Executor) Execute(ctx context.Context, p pattern.Node, opts eval.Options, stats *eval.QueryStats) (*incident.Set, *Completeness, error) {
	comp := &Completeness{Shards: len(x.shards)}
	if len(x.shards) == 0 {
		comp.Complete = true
		if stats != nil {
			stats.Workers = 1
		}
		return &incident.Set{}, comp, nil
	}

	opts.Budget = sliceBudget(opts.Budget, len(x.shards))
	tr := obs.FromContext(ctx)
	results := make([]shardResult, len(x.shards))
	var wg sync.WaitGroup
	for i := range x.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = x.runShard(ctx, tr, p, opts, i)
		}(i)
	}
	wg.Wait()

	// Fold outcomes into the completeness contract and the merged set.
	var (
		merged   []incident.Incident
		firstErr error
	)
	for i, r := range results {
		comp.Retries += r.retries
		switch {
		case r.skipped:
			comp.Skipped++
			comp.ExcludedWIDs += len(x.shards[i].WIDs)
			comp.Failures = append(comp.Failures, x.outcome(i, r))
		case r.err != nil:
			comp.Attempted++
			comp.Failed++
			comp.ExcludedWIDs += len(x.shards[i].WIDs)
			comp.Failures = append(comp.Failures, x.outcome(i, r))
			if firstErr == nil {
				firstErr = r.err
			}
		default:
			comp.Attempted++
			comp.Succeeded++
			merged = append(merged, r.set.Incidents()...)
			if stats != nil {
				stats.Instances += r.stats.Instances
				stats.Incidents += r.stats.Incidents
			}
		}
	}
	comp.Complete = comp.Succeeded == comp.Shards
	if stats != nil {
		stats.Workers = len(x.shards)
		stats.Shards = len(x.shards)
		stats.ShardsFailed = comp.Failed + comp.Skipped
		stats.ShardRetries = comp.Retries
	}

	if err := ctx.Err(); err != nil {
		return nil, comp, err
	}
	if comp.Succeeded == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("all %d shards skipped by open circuit breakers", comp.Shards)
		}
		return nil, comp, firstErr
	}
	// Under PolicyRange the shard ranges are disjoint and ascending and each
	// shard's set is canonical, so the concatenation is already sorted;
	// NewSet's normalize pass is then a cheap verification. Under PolicyHash
	// it performs the real merge.
	return incident.NewSet(merged...), comp, nil
}

// runShard drives one shard through breaker admission and the retry loop.
func (x *Executor) runShard(ctx context.Context, tr *obs.Trace, p pattern.Node, opts eval.Options, i int) shardResult {
	sh := x.shards[i]
	br := x.breakers[i]
	if !br.Allow() {
		return shardResult{
			skipped: true,
			err:     fmt.Errorf("circuit breaker open for shard %d (%s)", sh.ID, sh.RangeString()),
		}
	}
	ev := eval.New(x.ix, opts)
	var res shardResult
	for attempt := 1; ; attempt++ {
		res.attempts = attempt
		sp := tr.StartSpan(fmt.Sprintf("shard %d attempt %d", sh.ID, attempt))
		sp.SetAttr("wid_min", sh.MinWID)
		sp.SetAttr("wid_max", sh.MaxWID)
		sp.SetAttr("wids", len(sh.WIDs))

		actx := ctx
		cancel := func() {}
		if x.cfg.ShardTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, x.cfg.ShardTimeout)
		}
		var st eval.QueryStats
		set, err := ev.EvalWIDsCtx(actx, p, sh.WIDs, &st)
		cancel()

		if err == nil {
			sp.SetAttr("incidents", st.Incidents)
			sp.End()
			br.Success()
			res.set, res.stats, res.err = set, st, nil
			return res
		}
		sp.SetAttr("error", err.Error())
		sp.End()
		res.err = err
		// The parent context dying is not a shard fault: don't trip the
		// breaker for it, and don't retry into a cancelled query.
		if ctx.Err() != nil {
			return res
		}
		br.Failure()
		if !Retryable(err) || attempt >= x.cfg.MaxAttempts || !br.Allow() {
			return res
		}
		res.retries++
		x.cfg.Sleep(x.cfg.Backoff.Delay(attempt, x.cfg.Rand()))
	}
}

// outcome renders one excluded shard's ShardOutcome.
func (x *Executor) outcome(i int, r shardResult) ShardOutcome {
	sh := x.shards[i]
	return ShardOutcome{
		Shard:    sh.ID,
		WIDMin:   sh.MinWID,
		WIDMax:   sh.MaxWID,
		WIDs:     len(sh.WIDs),
		Attempts: r.attempts,
		Cause:    r.err.Error(),
		Skipped:  r.skipped,
	}
}
