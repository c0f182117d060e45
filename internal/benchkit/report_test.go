package benchkit

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport(ns int64) *Report {
	r := NewReport(LogMeta{Source: "clinic", Instances: 10, Records: 100, Activities: 8, Seed: 1})
	r.Benches = []BenchItem{
		{Name: "atom", Query: "A", NsPerOp: ns, Incidents: 3, Digest: Digest("{(1;2)}")},
		{Name: "seq", Query: "A -> B", NsPerOp: ns * 2, Incidents: 1, Digest: Digest("{(1;2,3)}")},
	}
	r.Finalize()
	return r
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := sampleReport(1000)
	if err := WriteReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest || got.Backend != "row" || len(got.Benches) != 2 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Schema != ReportSchema {
		t.Errorf("schema = %q", got.Schema)
	}
}

func TestCompareReportsAgreeing(t *testing.T) {
	a, b := sampleReport(2000), sampleReport(1000)
	table, err := CompareReports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "2.00x") {
		t.Errorf("speedup column missing from:\n%s", table)
	}
}

func TestCompareReportsDigestMismatch(t *testing.T) {
	a, b := sampleReport(1000), sampleReport(1000)
	b.Benches[1].Digest = Digest("{(9;9,9)}")
	b.Finalize()
	if _, err := CompareReports(a, b); err == nil {
		t.Fatal("differing answers not detected")
	}
}

func TestCompareReportsWorkloadMismatch(t *testing.T) {
	a, b := sampleReport(1000), sampleReport(1000)
	b.Log.Seed = 2
	if _, err := CompareReports(a, b); err == nil {
		t.Fatal("differing workloads not detected")
	}
}

func TestDigestStable(t *testing.T) {
	if Digest("x") != Digest("x") {
		t.Error("digest not deterministic")
	}
	if Digest("x") == Digest("y") {
		t.Error("distinct answers collided (FNV-1a would be broken)")
	}
}
