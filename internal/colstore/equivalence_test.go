// Package equivalence holds the storage equivalence suite and nothing else.
// The directory once held a second, columnar storage backend; that backend
// is gone, and the suite now compares the physical paths that remain for
// building the one record index:
//
//   - the batch build, eval.NewIndex over a whole log, which static logs
//     and reloads use; and
//   - the live build, eval.NewEmptyIndex fed record by record through
//     Append, which ingestion and stream consumers maintain.
//
// Every query must get the same incidents, in the same normalized order,
// from both builds: unrewritten and rewritten, sharded and unsharded, under
// both join strategies, and through Count and Exists. Run under -race in
// CI, it proves that how the index was built is a physical detail, never a
// semantic one. Whether the answers are right is the Definition 4 oracle
// suite's job, in internal/core/eval.
package equivalence

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/shard"
	"wlq/internal/wlog"
)

var equivalenceQueries = []string{
	// Each operator alone, and each in composition.
	"Act00 . Act01",
	"Act00 -> Act02",
	"Act01 | Act03",
	"Act00 & Act01",
	"(Act00 . Act01) -> Act02",
	"(Act00 -> Act01) | (Act00 -> Act02)",
	"(Act00 | Act01) & Act02",
	"Act00 -> (Act01 & (Act02 | Act03))",
	// Negation and absent activities.
	"!Act00 . Act01",
	"Act00 -> NoSuchActivity",
	"!NoSuchActivity & Act01",
	// START/END boundary records.
	"START . Act00",
	"Act00 -> END",
}

func equivalenceLogs(t *testing.T) map[string]*wlog.Log {
	t.Helper()
	return map[string]*wlog.Log{
		"uniform": gen.MustRandomLog(gen.LogParams{
			Instances: 40, MeanLength: 20, Seed: 11,
		}),
		"skewed": gen.MustRandomLog(gen.LogParams{
			Instances: 25, MeanLength: 30, Skew: 1.3, CompleteFraction: 0.6, Seed: 23,
		}),
	}
}

func parse(t *testing.T, q string) pattern.Node {
	t.Helper()
	p, err := pattern.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return p
}

// buildLive feeds l's records to an empty index through Append, in log
// order: the path live ingestion maintains the index by.
func buildLive(l *wlog.Log) *eval.Index {
	ix := eval.NewEmptyIndex()
	for i := 0; i < l.Len(); i++ {
		ix.Append(l.Record(i))
	}
	return ix
}

// buildLiveReversed feeds l instance by instance, highest wid first, so
// every new instance lands below the ones already indexed and Append must
// restore the ascending wid order itself.
func buildLiveReversed(l *wlog.Log) *eval.Index {
	byWID := make(map[uint64][]wlog.Record)
	var wids []uint64
	for i := 0; i < l.Len(); i++ {
		r := l.Record(i)
		if _, ok := byWID[r.WID]; !ok {
			wids = append(wids, r.WID)
		}
		byWID[r.WID] = append(byWID[r.WID], r)
	}
	sort.Slice(wids, func(i, j int) bool { return wids[i] > wids[j] })
	ix := eval.NewEmptyIndex()
	for _, wid := range wids {
		for _, r := range byWID[wid] {
			ix.Append(r)
		}
	}
	return ix
}

func TestCrossBackendEquivalence(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		batch := eval.NewIndex(l)
		live := buildLive(l)
		for _, q := range equivalenceQueries {
			for _, rewritten := range []bool{false, true} {
				name := logName + "/" + q
				if rewritten {
					name += "/rewritten"
				}
				t.Run(name, func(t *testing.T) {
					batchP, liveP := parse(t, q), parse(t, q)
					if rewritten {
						// Each build feeds its own statistics to the
						// optimizer; the plans must still agree because
						// both builds report identical statistics.
						batchP, _ = rewrite.Optimize(batchP, batch)
						liveP, _ = rewrite.Optimize(liveP, live)
					}
					want := eval.New(batch, eval.Options{}).Eval(batchP)
					got := eval.New(live, eval.Options{}).Eval(liveP)
					if !want.Equal(got) {
						t.Fatalf("builds disagree:\nbatch: %s\nlive:  %s", want, got)
					}
					if want.String() != got.String() {
						t.Fatalf("normalized renderings differ:\nbatch: %s\nlive:  %s", want, got)
					}
				})
			}
		}
	}
}

func TestCrossBackendEquivalenceSharded(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		batch := eval.NewIndex(l)
		live := buildLive(l)
		for _, q := range equivalenceQueries {
			t.Run(logName+"/"+q, func(t *testing.T) {
				p := parse(t, q)
				want, wc, err := shard.Execute(context.Background(), batch, 4, p, eval.Options{}, nil)
				if err != nil {
					t.Fatalf("batch executor: %v", err)
				}
				got, gc, err := shard.Execute(context.Background(), live, 4, p, eval.Options{}, nil)
				if err != nil {
					t.Fatalf("live executor: %v", err)
				}
				if !wc.Complete || !gc.Complete {
					t.Fatalf("incomplete results: batch %v, live %v", wc.Complete, gc.Complete)
				}
				if !want.Equal(got) {
					t.Fatalf("sharded builds disagree:\nbatch: %s\nlive:  %s", want, got)
				}
				if whole := eval.New(batch, eval.Options{}).Eval(p); !whole.Equal(want) {
					t.Fatalf("sharded answer differs from unsharded:\nsharded:   %s\nunsharded: %s", want, whole)
				}
			})
		}
	}
}

func TestCrossBackendEquivalenceStrategies(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 12, MeanLength: 15, Seed: 5})
	batch := eval.NewIndex(l)
	live := buildLive(l)
	for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
		for _, q := range equivalenceQueries {
			t.Run(strat.String()+"/"+q, func(t *testing.T) {
				p := parse(t, q)
				want := eval.New(batch, eval.Options{Strategy: strat}).Eval(p)
				got := eval.New(live, eval.Options{Strategy: strat}).Eval(p)
				if !want.Equal(got) {
					t.Fatalf("strategy %v disagrees:\nbatch: %s\nlive:  %s", strat, want, got)
				}
			})
		}
	}
}

func TestCrossBackendCountAndExists(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 20, MeanLength: 18, Skew: 0.8, Seed: 31})
	batch := eval.NewIndex(l)
	live := buildLive(l)
	for _, q := range equivalenceQueries {
		p := parse(t, q)
		batchEv := eval.New(batch, eval.Options{})
		liveEv := eval.New(live, eval.Options{})
		bc, lc := batchEv.Count(p), liveEv.Count(p)
		if bc != lc {
			t.Errorf("Count(%q): batch %d, live %d", q, bc, lc)
		}
		if n := batchEv.Eval(p).Len(); bc != n {
			t.Errorf("Count(%q) = %d, |Eval| = %d", q, bc, n)
		}
		be, le := batchEv.Exists(p), liveEv.Exists(p)
		if be != le {
			t.Errorf("Exists(%q): batch %v, live %v", q, be, le)
		}
		if be != (bc > 0) {
			t.Errorf("Exists(%q) = %v with Count %d", q, be, bc)
		}
	}
}

// TestLiveStoreEquivalence feeds the live index instance by instance in
// descending wid order, the opposite of the log's, and requires every
// answer to match the batch build's.
func TestLiveStoreEquivalence(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		batch := eval.NewIndex(l)
		live := buildLiveReversed(l)
		for _, q := range equivalenceQueries {
			for _, rewritten := range []bool{false, true} {
				name := logName + "/" + q
				if rewritten {
					name += "/rewritten"
				}
				t.Run(name, func(t *testing.T) {
					batchP, liveP := parse(t, q), parse(t, q)
					if rewritten {
						batchP, _ = rewrite.Optimize(batchP, batch)
						liveP, _ = rewrite.Optimize(liveP, live)
					}
					want := eval.New(batch, eval.Options{}).Eval(batchP)
					got := eval.New(live, eval.Options{}).Eval(liveP)
					if !want.Equal(got) {
						t.Fatalf("live index diverges from batch:\nbatch: %s\nlive:  %s", want, got)
					}
				})
			}
		}
	}
}

// TestLiveStoreStatsAndSymbols: the live index must report the same planner
// statistics and activity alphabet as the batch build, or the optimizer
// would pick different plans live vs. reloaded.
func TestLiveStoreStatsAndSymbols(t *testing.T) {
	for logName, l := range equivalenceLogs(t) {
		batch := eval.NewIndex(l)
		live := buildLiveReversed(l)
		t.Run(logName, func(t *testing.T) {
			if batch.TotalRecords() != live.TotalRecords() {
				t.Fatalf("TotalRecords: batch %d live %d", batch.TotalRecords(), live.TotalRecords())
			}
			acts := batch.Activities()
			liveActs := live.Activities()
			if !reflect.DeepEqual(acts, liveActs) {
				t.Fatalf("Activities: batch %v live %v", acts, liveActs)
			}
			for _, a := range acts {
				if batch.ActivityCount(a) != live.ActivityCount(a) {
					t.Fatalf("ActivityCount(%q): batch %d live %d", a, batch.ActivityCount(a), live.ActivityCount(a))
				}
			}
			if n := live.ActivityCount("NoSuchActivity"); n != 0 {
				t.Fatalf("live index counts %d records of an absent activity", n)
			}
			for _, wid := range batch.WIDs() {
				for _, a := range acts {
					want := batch.ActivitySeqs(wid, a)
					got := live.ActivitySeqs(wid, a)
					if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
						t.Fatalf("ActivitySeqs(%d,%q): batch %v live %v", wid, a, want, got)
					}
				}
			}
		})
	}
}

// mustLog builds a small valid log with duplicate-heavy activity usage.
func mustLog(t *testing.T) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	w1 := b.Start()
	w2 := b.Start()
	for _, act := range []string{"A", "B", "A", "A", "C"} {
		if err := b.Emit(w1, act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, act := range []string{"B", "B", "A"} {
		if err := b.Emit(w2, act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(w1); err != nil {
		t.Fatal(err)
	}
	if err := b.End(w2); err != nil {
		t.Fatal(err)
	}
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestStoreMatchesRowIndex: an index built record by record answers every
// accessor exactly as the batch build of the same log.
func TestStoreMatchesRowIndex(t *testing.T) {
	logs := map[string]*wlog.Log{
		"handmade": mustLog(t),
		"random": gen.MustRandomLog(gen.LogParams{
			Instances: 37, MeanLength: 24, Skew: 1.1, CompleteFraction: 0.7, Seed: 7,
		}),
	}
	for name, l := range logs {
		t.Run(name, func(t *testing.T) {
			assertIndexesAgree(t, eval.NewIndex(l), buildLive(l))
			assertIndexesAgree(t, eval.NewIndex(l), buildLiveReversed(l))
		})
	}
}

// assertIndexesAgree checks every accessor answer of live against the batch
// index, including probes for absent wids and activities.
func assertIndexesAgree(t *testing.T, batch, live *eval.Index) {
	t.Helper()
	if !reflect.DeepEqual(batch.WIDs(), live.WIDs()) {
		t.Fatalf("WIDs: batch %v, live %v", batch.WIDs(), live.WIDs())
	}
	if batch.TotalRecords() != live.TotalRecords() {
		t.Errorf("TotalRecords: batch %d, live %d", batch.TotalRecords(), live.TotalRecords())
	}
	if !reflect.DeepEqual(batch.Activities(), live.Activities()) {
		t.Errorf("Activities: batch %v, live %v", batch.Activities(), live.Activities())
	}
	acts := append(batch.Activities(), "no-such-activity", "")
	for _, act := range acts {
		if bc, lc := batch.ActivityCount(act), live.ActivityCount(act); bc != lc {
			t.Errorf("ActivityCount(%q): batch %d, live %d", act, bc, lc)
		}
	}
	probeWIDs := append(append([]uint64{}, batch.WIDs()...), 0, 1<<40) // absent wids included
	for _, wid := range probeWIDs {
		if bl, ll := batch.InstanceLen(wid), live.InstanceLen(wid); bl != ll {
			t.Errorf("InstanceLen(%d): batch %d, live %d", wid, bl, ll)
		}
		bi, li := batch.Instance(wid), live.Instance(wid)
		if len(bi) != len(li) {
			t.Fatalf("Instance(%d): batch %d records, live %d", wid, len(bi), len(li))
		}
		for k := range bi {
			if !bi[k].Equal(li[k]) {
				t.Errorf("Instance(%d)[%d]: batch %v, live %v", wid, k, bi[k], li[k])
			}
		}
		for seq := uint64(0); seq <= uint64(len(bi))+2; seq++ {
			br, bok := batch.Record(wid, seq)
			lr, lok := live.Record(wid, seq)
			if bok != lok || (bok && !br.Equal(lr)) {
				t.Errorf("Record(%d,%d): batch (%v,%v), live (%v,%v)", wid, seq, br, bok, lr, lok)
			}
		}
		for _, act := range acts {
			bs, ls := batch.ActivitySeqs(wid, act), live.ActivitySeqs(wid, act)
			if len(bs) != len(ls) || (len(bs) > 0 && !reflect.DeepEqual(bs, ls)) {
				t.Errorf("ActivitySeqs(%d,%q): batch %v, live %v", wid, act, bs, ls)
			}
		}
	}
}

const storeCSV = `case,activity,when
o-1,Pay,2017-01-02T10:00:00Z
o-2,Pack,2017-01-02T09:00:00Z
o-1,Ship,2017-01-03T08:00:00Z
o-2,Ship,2017-01-02T11:00:00Z
o-2,Pay,2017-01-04T12:00:00Z
`

const storeXES = `<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="o-1"/>
    <event><string key="concept:name" value="Pay"/></event>
    <event><string key="concept:name" value=" Ship "/></event>
  </trace>
  <trace>
    <string key="concept:name" value="o-2"/>
    <event><string key="concept:name" value="Pack"/></event>
    <event><string key="concept:name" value="Ship"/></event>
  </trace>
</log>
`

func TestStoreOverImportedLogs(t *testing.T) {
	csvLog, err := logio.ImportCSV(strings.NewReader(storeCSV), logio.CSVOptions{TimeColumn: "when"})
	if err != nil {
		t.Fatal(err)
	}
	xesLog, err := logio.ImportXES(strings.NewReader(storeXES), logio.XESOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*wlog.Log{"csv": csvLog, "xes": xesLog} {
		t.Run(name, func(t *testing.T) {
			assertIndexesAgree(t, eval.NewIndex(l), buildLive(l))
		})
	}
	// The XES importer trims concept:name whitespace at ingest, so " Ship "
	// and "Ship" are one activity in both builds.
	live := buildLive(xesLog)
	if got := live.ActivityCount("Ship"); got != 2 {
		t.Errorf("ActivityCount(Ship) over XES log = %d, want 2 (trimmed at ingest)", got)
	}
	if got := live.ActivityCount(" Ship "); got != 0 {
		t.Errorf("untrimmed activity name survived XES ingest: %d records", got)
	}
}
