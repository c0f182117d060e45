package main

import (
	"bytes"
	"strings"
	"testing"

	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

func bodies(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.Write(r.body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a := bodies(queryStream(w, 7, 5000))
		if !bytes.Equal(a, bodies(queryStream(w, 7, 5000))) {
			t.Errorf("%s: same seed gave different request streams", w)
		}
		if bytes.Equal(a, bodies(queryStream(w, 8, 5000))) {
			t.Errorf("%s: seeds 7 and 8 gave identical request streams", w)
		}
	}
}

func TestAppendStreamIsSeedDeterministic(t *testing.T) {
	base, err := baseLog(7)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) []byte {
		batches, err := appendStream(base, seed, 50)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, x := range batches {
			b.Write(x.body)
		}
		return b.Bytes()
	}
	a := stream(7)
	if !bytes.Equal(a, stream(7)) {
		t.Error("same seed gave different append streams")
	}
	if bytes.Equal(a, stream(8)) {
		t.Error("seeds 7 and 8 gave identical append streams")
	}
	other, err := baseLog(8)
	if err != nil {
		t.Fatal(err)
	}
	if base.Equal(other) {
		t.Error("seeds 7 and 8 gave identical base logs")
	}
}

// The program's own canonical key must see at least four cache-sizes of
// distinct patterns in one pass, so the result cache misses on cold-mix.
func TestColdPassOutgrowsTheCache(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		keys := make(map[string]bool)
		for _, r := range coldPass(seed) {
			p, err := pattern.Parse(r.Query)
			if err != nil {
				t.Fatalf("seed %d: %q does not parse: %v", seed, r.Query, err)
			}
			keys[pattern.CanonicalKey(p)] = true
		}
		if len(keys) < 4*serverCacheSize {
			t.Errorf("seed %d: %d distinct canonical patterns per pass, want at least %d", seed, len(keys), 4*serverCacheSize)
		}
	}
}

func TestColdPatternShape(t *testing.T) {
	ops := make(map[pattern.Op]bool)
	modes := make(map[string]int)
	absent := false
	pass := coldPass(1)
	for _, r := range pass {
		p := pattern.MustParse(r.Query)
		atoms := pattern.Atoms(p)
		if len(atoms) < 1 || len(atoms) > 4 {
			t.Errorf("%q has %d atoms, want 1-4", r.Query, len(atoms))
		}
		negated, parallel := 0, 0
		for _, a := range atoms {
			if a.Negated {
				negated++
			}
			absent = absent || a.Activity == absentActivity
		}
		pattern.Walk(p, func(n pattern.Node) bool {
			if b, ok := n.(*pattern.Binary); ok {
				ops[b.Op] = true
				if b.Op == pattern.OpParallel {
					parallel++
				}
			}
			return true
		})
		if negated > 1 || parallel > 1 {
			t.Errorf("%q has %d negated atoms and %d parallels, want at most one each", r.Query, negated, parallel)
		}
		modes[r.Mode]++
	}
	if len(ops) != 4 {
		t.Errorf("pass uses %d of the 4 operators", len(ops))
	}
	if !absent {
		t.Error("pass never uses the absent activity")
	}
	n := float64(len(pass))
	for mode, want := range map[string]float64{modeIncidents: 0.6, modeCount: 0.2, modeExists: 0.2} {
		if got := float64(modes[mode]) / n; got < want-0.05 || got > want+0.05 {
			t.Errorf("mode %s is %.2f of the pass, want about %.1f", mode, got, want)
		}
	}
}

func TestHotStreamDrawsTheSuiteWithSkew(t *testing.T) {
	counts := make(map[string]int)
	for _, r := range hotStream(1, 20000) {
		counts[r.key()]++
	}
	if len(counts) != len(hotQueries) {
		t.Fatalf("hot stream drew %d distinct queries, want %d", len(counts), len(hotQueries))
	}
	first, last := counts[hotQueries[0].key()], counts[hotQueries[len(hotQueries)-1].key()]
	if first <= 4*last {
		t.Errorf("rank 1 drawn %d times, rank 15 %d times: want a Zipf skew", first, last)
	}
	if !strings.Contains(string(bodies(hotQueries)), `"SeeDoctor -> PayTreatment"`) {
		t.Error("the hot set lacks the anchor query SeeDoctor -> PayTreatment")
	}
}

// The base log followed by the append stream must be a Definition 2 valid
// log: wlog.New validates it.
func TestBasePlusAppendsIsValid(t *testing.T) {
	base, err := baseLog(3)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := appendStream(base, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	records := base.Records()
	for _, b := range batches {
		if b.records[0].Activity != wlog.ActivityStart || b.records[len(b.records)-1].Activity != wlog.ActivityEnd {
			t.Fatalf("batch is not a complete instance: %v", b.records)
		}
		records = append(records, b.records...)
	}
	if _, err := wlog.New(records); err != nil {
		t.Fatalf("base + appends is not a valid log: %v", err)
	}
}
