package eval

import (
	"testing"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/wlog"
)

// The Definition 4 oracle suite: every operator alone and in composition,
// negation, activities absent from the log, and the START/END boundary
// records, each evaluated on two generated logs and checked against the
// brute-force reference. TestEvalMatchesBruteForce draws only from {A, B};
// these queries reach what it cannot.
var oracleQueries = []string{
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

func oracleLogs() map[string]*wlog.Log {
	return map[string]*wlog.Log{
		"uniform": gen.MustRandomLog(gen.LogParams{
			Instances: 40, MeanLength: 20, Seed: 11,
		}),
		"skewed": gen.MustRandomLog(gen.LogParams{
			Instances: 25, MeanLength: 30, Skew: 1.3, CompleteFraction: 0.6, Seed: 23,
		}),
	}
}

// bruteForceLog is bruteForce over every instance of the index.
func bruteForceLog(ix *Index, p pattern.Node) *incident.Set {
	set := &incident.Set{}
	for _, wid := range ix.WIDs() {
		set.Add(bruteForce(ix, p, wid).Incidents()...)
	}
	set.Normalize()
	return set
}

// appendedIndex builds the index one record at a time through Append, the
// path live ingestion maintains it by; every check runs on it too.
func appendedIndex(l *wlog.Log) *Index {
	ix := NewEmptyIndex()
	for i := 0; i < l.Len(); i++ {
		ix.Append(l.Record(i))
	}
	return ix
}

// checkAgainstOracle evaluates plan on ix with both join families and the
// Count/Exists fast paths, comparing each to want.
func checkAgainstOracle(t *testing.T, ix *Index, plan pattern.Node, want *incident.Set) {
	t.Helper()
	merge := New(ix, Options{Strategy: StrategyMerge})
	got := merge.Eval(plan)
	if !got.Equal(want) {
		t.Fatalf("merge disagrees with Definition 4:\n got: %s\nwant: %s", got, want)
	}
	if naive := New(ix, Options{Strategy: StrategyNaive}).Eval(plan); !naive.Equal(want) {
		t.Fatalf("naive disagrees with Definition 4:\n got: %s\nwant: %s", naive, want)
	}
	if n := merge.Count(plan); n != got.Len() {
		t.Fatalf("Count = %d, |Eval| = %d", n, got.Len())
	}
	if ex := merge.Exists(plan); ex != (got.Len() > 0) {
		t.Fatalf("Exists = %v, |Eval| = %d", ex, got.Len())
	}
}

func TestDefinition4Oracle(t *testing.T) {
	for logName, l := range oracleLogs() {
		ix := NewIndex(l)
		live := appendedIndex(l)
		for _, q := range oracleQueries {
			p := pattern.MustParse(q)
			want := bruteForceLog(ix, p)
			t.Run(logName+"/"+q, func(t *testing.T) {
				checkAgainstOracle(t, ix, p, want)
				checkAgainstOracle(t, live, p, want)
			})
			t.Run(logName+"/"+q+"/rewritten", func(t *testing.T) {
				plan, _ := rewrite.Optimize(p, ix)
				checkAgainstOracle(t, ix, plan, want)
				checkAgainstOracle(t, live, plan, want)
			})
		}
	}
}
