package benchkit

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"
)

// ReportSchema versions the machine-readable run summary; bump it on any
// incompatible field change so downstream comparison tooling can refuse
// mixed-schema diffs instead of misreading them.
const ReportSchema = "wlq-bench/v1"

// Report is one wlq-bench run in machine-readable form — the format behind
// the checked-in BENCH_*.json files. Two reports from the same machine and
// log configuration are directly comparable: per-bench ns/op for the perf
// trajectory, and per-bench answer digests for correctness (CI fails when a
// fresh run's digests differ from the checked-in BENCH_baseline.json).
type Report struct {
	Schema     string      `json:"schema"`
	Tool       string      `json:"tool"`
	Backend    string      `json:"backend"` // always "row": the storage label older reports carry
	CreatedAt  time.Time   `json:"created_at"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Log        LogMeta     `json:"log"`
	Benches    []BenchItem `json:"benches"`
	// Digest combines every bench's answer digest; equal log configs and
	// equal Digest values mean the two runs produced identical answers.
	Digest string `json:"digest"`
}

// LogMeta identifies the benchmark workload so runs are only compared
// like-for-like.
type LogMeta struct {
	Source     string `json:"source"` // e.g. "clinic"
	Instances  int    `json:"instances"`
	Records    int    `json:"records"`
	Activities int    `json:"activities"`
	Seed       int64  `json:"seed"`
}

// BenchItem is one measured query.
type BenchItem struct {
	Name      string `json:"name"`
	Query     string `json:"query"`
	NsPerOp   int64  `json:"ns_per_op"`
	Incidents int    `json:"incidents"`
	// Digest is an FNV-1a 64 hash of the normalized incident set, so
	// answer equivalence is checkable without storing the incidents.
	Digest string `json:"digest"`
}

// NewReport stamps the environment fields.
func NewReport(log LogMeta) *Report {
	return &Report{
		Schema:     ReportSchema,
		Tool:       "wlq-bench",
		Backend:    "row",
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Log:        log,
	}
}

// Digest hashes an answer rendering with FNV-1a 64.
func Digest(answer string) string {
	h := fnv.New64a()
	h.Write([]byte(answer))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Finalize computes the combined digest over the per-bench digests (in
// bench order, names included, so a renamed or reordered suite never
// collides with an unchanged one).
func (r *Report) Finalize() {
	h := fnv.New64a()
	for _, b := range r.Benches {
		h.Write([]byte(b.Name))
		h.Write([]byte{0})
		h.Write([]byte(b.Digest))
		h.Write([]byte{0})
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads and schema-checks a report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchkit: parsing %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("benchkit: %s has schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// CompareReports checks that two runs answered identically and renders a
// per-bench speedup table (a over b, so "2.00x" means b ran twice as fast).
// It returns an error on any digest or workload mismatch — the signal CI's
// bench-suite digest step trips on.
func CompareReports(a, b *Report) (string, error) {
	if a.Log != b.Log {
		return "", fmt.Errorf("benchkit: workloads differ: %+v vs %+v", a.Log, b.Log)
	}
	if len(a.Benches) != len(b.Benches) {
		return "", fmt.Errorf("benchkit: bench counts differ: %d vs %d", len(a.Benches), len(b.Benches))
	}
	rows := [][]string{{"bench", "a", "b", "speedup", "incidents"}}
	for i, ab := range a.Benches {
		bb := b.Benches[i]
		if ab.Name != bb.Name {
			return "", fmt.Errorf("benchkit: bench %d named %q vs %q", i, ab.Name, bb.Name)
		}
		if ab.Digest != bb.Digest {
			return "", fmt.Errorf("benchkit: answers differ on %q: digest %s vs %s",
				ab.Name, ab.Digest, bb.Digest)
		}
		speedup := "-"
		if bb.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(ab.NsPerOp)/float64(bb.NsPerOp))
		}
		rows = append(rows, []string{
			ab.Name,
			time.Duration(ab.NsPerOp).String(),
			time.Duration(bb.NsPerOp).String(),
			speedup,
			fmt.Sprintf("%d", ab.Incidents),
		})
	}
	if a.Digest != b.Digest {
		return "", fmt.Errorf("benchkit: combined digests differ: %s vs %s", a.Digest, b.Digest)
	}
	return Align(rows), nil
}
