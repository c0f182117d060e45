package shard

import (
	"context"
	"fmt"
	"sync"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/obs"
)

// ShardOutcome describes one shard excluded from a query's result: which
// wids are missing, how hard the executor tried, and why it gave up.
type ShardOutcome struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// WIDMin/WIDMax bound the excluded wids: the whole interval for a range
	// shard, the envelope of the scattered members for a cluster worker.
	WIDMin uint64 `json:"wid_min"`
	WIDMax uint64 `json:"wid_max"`
	// WIDs is the number of workflow instances excluded.
	WIDs int `json:"wids"`
	// Attempts is how many evaluation attempts were made (0 when a cluster
	// worker's circuit breaker skipped it outright).
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
	// scattered and the envelope alone would overstate the loss. Empty when
	// WIDMin–WIDMax already is the exact interval.
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
	// Retries counts re-attempts across all shards (cluster workers only;
	// an in-process shard runs once).
	Retries int `json:"retries"`
	// ExcludedWIDs is the total number of workflow instances not covered
	// by the result.
	ExcludedWIDs int `json:"excluded_wids"`
	// Failures details every excluded shard, ascending by shard id.
	Failures []ShardOutcome `json:"failures,omitempty"`
}

// Outcome is one failure domain's terminal result within a Gather.
type Outcome struct {
	// Incidents are the domain's answers (nil on failure).
	Incidents []incident.Incident
	// Instances is how many workflow instances the domain evaluated.
	Instances int
	// Attempts counts evaluation attempts; Retries the re-attempts among them.
	Attempts int
	Retries  int
	// Skipped marks a domain excluded without any attempt (open breaker).
	Skipped bool
	// Err is the terminal failure; nil on success.
	Err error
}

// Gather is the scatter-gather every fan-out shares: it runs run(i) for
// every domain concurrently, folds the outcomes into the Completeness
// contract and merges the surviving domains' incidents.
//
// scatter is the caller's span around the fan-out (nil when untraced); the
// caller hangs its per-domain spans under it. Gather ends it at fan-in and
// records the fold as a sibling "merge" span. stats, when non-nil, receives
// the fan-out width and the merged instance and incident counts.
//
// The returned error is non-nil only when the whole query is lost: the
// context was cancelled, or no domain produced a result. Otherwise Gather
// returns the merged set with a Completeness describing coverage; callers
// choose whether an incomplete result is an answer (degraded mode) or an
// error (strict mode).
func Gather(ctx context.Context, scatter *obs.Span, domains []Shard, run func(i int) Outcome, stats *eval.QueryStats) (*incident.Set, *Completeness, error) {
	comp := &Completeness{Shards: len(domains)}
	if len(domains) == 0 {
		scatter.End()
		comp.Complete = true
		if stats != nil {
			stats.Workers = 1
		}
		return &incident.Set{}, comp, nil
	}

	outcomes := make([]Outcome, len(domains))
	var wg sync.WaitGroup
	for i := range domains {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = run(i)
		}(i)
	}
	wg.Wait()
	scatter.End()

	msp := obs.FromContext(ctx).StartSpan("merge")
	defer msp.End()
	var (
		merged    []incident.Incident
		firstErr  error
		instances int
	)
	for i, o := range outcomes {
		d := domains[i]
		comp.Retries += o.Retries
		switch {
		case o.Skipped || o.Err != nil:
			if o.Skipped {
				comp.Skipped++
			} else {
				comp.Attempted++
				comp.Failed++
				if firstErr == nil {
					firstErr = o.Err
					if d.Worker != "" {
						firstErr = fmt.Errorf("worker %s: %w", d.Worker, o.Err)
					}
				}
			}
			comp.ExcludedWIDs += len(d.WIDs)
			comp.Failures = append(comp.Failures, ShardOutcome{
				Shard:    d.ID,
				WIDMin:   d.MinWID,
				WIDMax:   d.MaxWID,
				WIDs:     len(d.WIDs),
				Attempts: o.Attempts,
				Cause:    o.Err.Error(),
				Skipped:  o.Skipped,
				Worker:   d.Worker,
				Ranges:   RangesOf(d.WIDs),
			})
		default:
			comp.Attempted++
			comp.Succeeded++
			merged = append(merged, o.Incidents...)
			instances += o.Instances
		}
	}
	comp.Complete = comp.Succeeded == comp.Shards
	msp.SetAttr("merged", comp.Succeeded)
	msp.SetAttr("incidents", len(merged))
	if stats != nil {
		stats.Workers = len(domains)
		stats.Instances += instances
		stats.Incidents += len(merged)
	}

	if err := ctx.Err(); err != nil {
		return nil, comp, err
	}
	if comp.Succeeded == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("all %d failure domains skipped by open circuit breakers", comp.Shards)
		}
		return nil, comp, firstErr
	}
	// Range shards are disjoint and ascending and each answer is canonical,
	// so their concatenation is already sorted and NewSet's normalize pass
	// is a cheap verification; consistent hashing interleaves a cluster's
	// answers, and there it performs the real merge.
	return incident.NewSet(merged...), comp, nil
}
