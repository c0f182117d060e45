package main

// The answer gate: every run checks the program's answers against
// references built outside the timed window.

import (
	"fmt"
	"math/rand"
	"time"

	"wlq"
	"wlq/internal/wlog"
)

// naiveEngine is the unoptimized reference: Algorithm 1 nested-loop joins
// on the query exactly as written.
func naiveEngine(l *wlog.Log) *wlq.Engine {
	return wlq.NewEngine(l, wlq.WithStrategy(wlq.StrategyNaive), wlq.WithoutOptimizer())
}

// refDigest is the digest a correct server returns for r over e's log.
func refDigest(e *wlq.Engine, r request) (digest uint64, count int, err error) {
	set, err := e.Query(r.Query)
	if err != nil {
		return 0, 0, fmt.Errorf("reference %q: %w", r.Query, err)
	}
	d := newDigest(set.Len(), set.Len() > 0)
	if r.Mode == modeIncidents {
		incs := set.Incidents()
		if r.MaxResults > 0 && len(incs) > r.MaxResults {
			incs = incs[:r.MaxResults]
		}
		for _, inc := range incs {
			d.incident(inc.WID(), inc.Seqs())
		}
	}
	return d.sum(), set.Len(), nil
}

// gateSample is how many distinct requests per run are checked against
// the naive reference.
const gateSample = 48

// checkDigests checks decoded answers: every answer to a seeded sample of
// gateSample distinct requests against the naive reference and, with
// every set, all other answers against the single-node reference (the
// optimized engine on the same log). It returns how many answers were
// wrong and a description of the first.
func checkDigests(q *queryLoad, results []result, l *wlog.Log, seed int64, every bool) (wrong int, first string, err error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "gate-sample")))
	sampled := make(map[int32]bool, gateSample)
	for _, i := range rng.Perm(len(q.distinct)) {
		if len(sampled) == gateSample {
			break
		}
		sampled[int32(i)] = true
	}
	naive, single := naiveEngine(l), wlq.NewEngine(l)
	want := make(map[int32]uint64)
	for _, r := range results {
		if !r.ok() || !(every || sampled[r.req]) {
			continue
		}
		ref, name := single, "single-node"
		if sampled[r.req] {
			ref, name = naive, "naive"
		}
		d, ok := want[r.req]
		if !ok {
			if d, _, err = refDigest(ref, q.distinct[r.req]); err != nil {
				return 0, "", err
			}
			want[r.req] = d
		}
		if r.digest != d {
			wrong++
			if first == "" {
				first = fmt.Sprintf("%q differs from the %s reference", q.distinct[r.req].Query, name)
			}
		}
	}
	return wrong, first, nil
}

// checkHot compares each answer's count with the naive reference's (the
// hot set's answers are too large to decode inside the timed window), then
// asks every distinct hot query once more, decoding the full answer, and
// compares its digest.
func checkHot(f *fleet, q *queryLoad, results []result, l *wlog.Log) (wrong int, first string, err error) {
	naive := naiveEngine(l)
	want := make([]uint64, len(q.distinct))
	count := make([]int, len(q.distinct))
	for i, r := range q.distinct {
		if want[i], count[i], err = refDigest(naive, r); err != nil {
			return 0, "", err
		}
	}
	note := func(msg string) {
		wrong++
		if first == "" {
			first = msg
		}
	}
	for _, r := range results {
		if r.ok() && r.count != count[r.req] {
			note(fmt.Sprintf("%q: count %d, want %d", q.distinct[r.req].Query, r.count, count[r.req]))
		}
	}
	digests, _, err := answers(f, q.distinct)
	if err != nil {
		return 0, "", err
	}
	for i, d := range digests {
		if d != want[i] {
			note(fmt.Sprintf("%q differs from the naive reference", q.distinct[i].Query))
		}
	}
	return wrong, first, nil
}

// liveQueries are the requests the ingest gate answers before and after
// recovery: the hot set plus a START count, which counts instances.
func liveQueries() []request {
	return append(append([]request(nil), hotQueries...), request{Query: wlog.ActivityStart, Mode: modeCount})
}

// answers asks the fleet each request once, decoding the answers.
func answers(f *fleet, reqs []request) ([]uint64, []int, error) {
	q := newQueryLoad(f, reqs, true, time.Now())
	digests := make([]uint64, len(q.distinct))
	counts := make([]int, len(q.distinct))
	for i := range q.distinct {
		r := q.sendOnce(int32(i))
		if !r.ok() {
			return nil, nil, fmt.Errorf("query %q: status %d", q.distinct[i].Query, r.status)
		}
		digests[i], counts[i] = r.digest, r.count
	}
	return digests, counts, nil
}

// checkLive verifies a live log after appends: every acknowledged instance
// is counted by START, and the hot set answers as the naive reference does
// over the base log plus the acknowledged records.
func checkLive(f *fleet, base *wlog.Log, acked []appendBatch) (digests []uint64, wrong int, first string, err error) {
	digests, counts, err := answers(f, liveQueries())
	if err != nil {
		return nil, 0, "", err
	}
	records := base.Records()
	for _, b := range acked {
		records = append(records, b.records...)
	}
	merged, err := wlog.New(records)
	if err != nil {
		return nil, 0, "", fmt.Errorf("reference log: %w", err)
	}
	naive := naiveEngine(merged)
	reqs := liveQueries()
	for i, r := range reqs {
		d, _, err := refDigest(naive, r)
		if err != nil {
			return nil, 0, "", err
		}
		if d != digests[i] {
			wrong++
			if first == "" {
				first = fmt.Sprintf("live %q differs from the reference over base+acknowledged", r.Query)
			}
		}
	}
	if start, want := counts[len(counts)-1], len(base.WIDs())+len(acked); start != want {
		wrong++
		if first == "" {
			first = fmt.Sprintf("START count %d, want %d base + acknowledged instances", start, want)
		}
	}
	return digests, wrong, first, nil
}
