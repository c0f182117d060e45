package shard

import (
	"context"
	"fmt"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
)

// Execute evaluates p over the index partitioned into at most n wid-range
// shards (n <= 0 means GOMAXPROCS), each run once in its own failure domain,
// and merges the surviving shards' incidents through Gather.
//
// The partition is computed per call, so an index that grows between
// queries (live ingestion) is always covered in full; the caller must keep
// it immutable for the duration of the call. opts configures the
// underlying evaluation exactly as eval.New, except that opts.Budget is
// sliced per shard (work dimensions divided evenly; wall time shared). A
// non-nil opts.Meter aggregates across shards — the node counters are
// atomic.
//
// Errors and coverage follow Gather: with no faults the merged set equals
// the unsharded evaluator's output exactly.
func Execute(ctx context.Context, ix *eval.Index, n int, p pattern.Node, opts eval.Options, stats *eval.QueryStats) (*incident.Set, *Completeness, error) {
	shards := Partition(ix.WIDs(), n)
	opts.Budget = opts.Budget.Slice(len(shards))
	ev := eval.New(ix, opts)
	tr := obs.FromContext(ctx)
	scatter := tr.StartSpan("scatter")
	scatter.SetAttr("shards", len(shards))
	return Gather(ctx, scatter, shards, func(i int) Outcome {
		sh := shards[i]
		sp := scatter.StartChild(fmt.Sprintf("shard %d", sh.ID))
		defer sp.End()
		sp.SetAttr("wid_min", sh.MinWID)
		sp.SetAttr("wid_max", sh.MaxWID)
		sp.SetAttr("wids", len(sh.WIDs))
		var st eval.QueryStats
		set, err := ev.EvalWIDsCtx(ctx, p, sh.WIDs, &st)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return Outcome{Attempts: 1, Err: err}
		}
		sp.SetAttr("incidents", st.Incidents)
		return Outcome{Incidents: set.Incidents(), Instances: st.Instances, Attempts: 1}
	}, stats)
}
