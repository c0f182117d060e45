package main

// Seeded input generators. Everything here is a pure function of the seed
// and of the benchmark's own constants: no planner, cost model or cache
// logic of the program decides which requests a workload sends, so a later
// change to the program cannot change the workload it is measured on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"wlq/internal/clinic"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// Workload names, as accepted by -workload.
const (
	wlColdMix       = "cold-mix"
	wlHotRepeat     = "hot-repeat"
	wlIngestLive    = "ingest-live"
	wlClusterFanout = "cluster-fanout"
)

var workloadNames = []string{wlColdMix, wlHotRepeat, wlIngestLive, wlClusterFanout}

// Request modes of POST /v1/query.
const (
	modeIncidents = "incidents"
	modeCount     = "count"
	modeExists    = "exists"
)

// logName is the name every server registers the base log under.
const logName = "clinic"

// baseInstances sizes the base clinic log: the size the ROADMAP's
// baseline numbers were measured at (about 15.7k records).
const baseInstances = 1500

// serverCacheSize is the program's default result-cache capacity; a
// cold-mix pass must hold at least coldPassFactor times as many distinct
// patterns, so that an LRU cache of that size misses on every request.
const (
	serverCacheSize = 256
	coldPassFactor  = 5
	coldPassSize    = serverCacheSize * coldPassFactor
	coldMaxResults  = 100
)

// alphabet is the clinic referral process's activity set (Figure 3 plus
// the START/END records of Definition 1), and absentActivity a name that
// never occurs in the log.
var alphabet = []string{
	"START", "GetRefer", "CheckIn", "SeeDoctor", "PayTreatment",
	"TakeTreatment", "UpdateRefer", "GetReimburse", "CompleteRefer", "END",
}

const absentActivity = "NoSuchActivity"

// hotQueries are the 15 queries of the legacy `wlq-bench -suite`, in the
// suite's order, which is also their popularity rank under the Zipf draw.
// The ROADMAP anchor `SeeDoctor -> PayTreatment` is among them.
var hotQueries = []request{
	{Query: "SeeDoctor", Mode: modeIncidents},
	{Query: "GetReimburse", Mode: modeIncidents},
	{Query: "!SeeDoctor", Mode: modeIncidents},
	{Query: "CheckIn . SeeDoctor", Mode: modeIncidents},
	{Query: "SeeDoctor -> PayTreatment", Mode: modeIncidents},
	{Query: "GetRefer | GetReimburse", Mode: modeIncidents},
	{Query: "UpdateRefer & TakeTreatment", Mode: modeIncidents},
	{Query: "GetRefer -> (SeeDoctor -> PayTreatment)", Mode: modeIncidents},
	{Query: "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)", Mode: modeIncidents},
	{Query: "START -> END", Mode: modeIncidents},
	{Query: "CheckIn . SeeDoctor", Mode: modeCount},
	{Query: "SeeDoctor -> PayTreatment", Mode: modeCount},
	{Query: "UpdateRefer & TakeTreatment", Mode: modeCount},
	{Query: "SeeDoctor -> PayTreatment", Mode: modeExists},
	{Query: "NoSuchActivity -> SeeDoctor", Mode: modeExists},
}

// hotZipfS is the Zipf exponent of the hot-repeat draw over hotQueries.
const hotZipfS = 1.2

// request is one POST /v1/query body. Field names and order match the
// server's request document, so the encoded bytes are the wire bytes.
type request struct {
	Log        string `json:"log"`
	Query      string `json:"query"`
	Mode       string `json:"mode,omitempty"`
	MaxResults int    `json:"max_results,omitempty"`
}

// body returns the request's wire encoding.
func (r request) body() []byte {
	r.Log = logName
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // send "->" as written, not as "-\u003e"
	if err := enc.Encode(r); err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// key identifies a request for answer comparison: same key, same answer.
func (r request) key() string {
	return fmt.Sprintf("%s\x00%s\x00%d", r.Query, r.Mode, r.MaxResults)
}

// subSeed derives an independent generator seed per input stream, so that
// adding a stream never shifts another.
func subSeed(seed int64, stream string) int64 {
	h := int64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h ^= int64(stream[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// qnode is the generator's own pattern tree.
type qnode struct {
	op          string // "" for an atom; ".", "->", "|", "&"
	atom        string
	neg         bool
	left, right *qnode
}

func (n *qnode) String() string {
	if n.op == "" {
		if n.neg {
			return "!" + n.atom
		}
		return n.atom
	}
	return "(" + n.left.String() + " " + n.op + " " + n.right.String() + ")"
}

// canon renders the generator's canonical form: maximal chains of one
// operator flattened, operands of the commutative | and & sorted. Two
// patterns with different canon strings are different up to associativity
// and commutativity, which is what a result cache keyed on the program's
// canonical pattern can identify.
func (n *qnode) canon() string {
	if n.op == "" {
		return n.String()
	}
	var parts []string
	var flat func(m *qnode)
	flat = func(m *qnode) {
		if m.op == n.op {
			flat(m.left)
			flat(m.right)
			return
		}
		parts = append(parts, m.canon())
	}
	flat(n)
	if n.op == "|" || n.op == "&" {
		sort.Strings(parts)
	}
	return "(" + strings.Join(parts, " "+n.op+" ") + ")"
}

var coldOps = []string{".", "->", "|", "&"}

// randomPattern draws a pattern of 1–4 atoms over the clinic alphabet plus
// the absent activity, with any of the four operators, at most one
// parallel (⊕, "&") and at most one negated atom.
func randomPattern(rng *rand.Rand) *qnode {
	atoms := 1 + rng.Intn(4)
	names := append(append([]string(nil), alphabet...), absentActivity)
	leaves := make([]*qnode, atoms)
	for i := range leaves {
		leaves[i] = &qnode{atom: names[rng.Intn(len(names))]}
	}
	if rng.Intn(3) == 0 {
		leaves[rng.Intn(atoms)].neg = true
	}
	// Combine random adjacent pairs until one tree is left: every binary
	// tree shape over the leaf order is reachable.
	parallel := false
	for len(leaves) > 1 {
		i := rng.Intn(len(leaves) - 1)
		op := coldOps[rng.Intn(len(coldOps))]
		if op == "&" {
			if parallel {
				op = coldOps[rng.Intn(3)]
			} else {
				parallel = true
			}
		}
		joined := &qnode{op: op, left: leaves[i], right: leaves[i+1]}
		leaves = append(leaves[:i], append([]*qnode{joined}, leaves[i+2:]...)...)
	}
	return leaves[0]
}

// coldPass returns one cold-mix pass: coldPassSize requests whose patterns
// are pairwise distinct in canonical form, ~60% incidents (first
// coldMaxResults), ~20% count and ~20% exists.
func coldPass(seed int64) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, "cold-mix")))
	seen := make(map[string]bool, coldPassSize)
	pass := make([]request, 0, coldPassSize)
	for len(pass) < coldPassSize {
		p := randomPattern(rng)
		if seen[p.canon()] {
			continue
		}
		seen[p.canon()] = true
		r := request{Query: p.String(), Mode: modeIncidents, MaxResults: coldMaxResults}
		switch x := rng.Intn(10); {
		case x < 2:
			r.Mode, r.MaxResults = modeCount, 0
		case x < 4:
			r.Mode, r.MaxResults = modeExists, 0
		}
		pass = append(pass, r)
	}
	return pass
}

// coldStream returns n cold-mix requests: the pass repeated, each
// repetition in a fresh seeded order, so a pattern recurs only about a
// pass (5 cache sizes) of requests later.
func coldStream(seed int64, n int) []request {
	pass := coldPass(seed)
	rng := rand.New(rand.NewSource(subSeed(seed, "cold-order")))
	out := make([]request, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(pass)) {
			if len(out) == n {
				break
			}
			out = append(out, pass[i])
		}
	}
	return out
}

// hotStream returns n hot-repeat requests drawn from hotQueries with a
// Zipf skew: rank k (0-based, suite order) has weight (k+1)^-hotZipfS.
func hotStream(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, "hot-repeat")))
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(hotQueries)-1))
	out := make([]request, n)
	for i := range out {
		out[i] = hotQueries[z.Uint64()]
	}
	return out
}

// queryStream returns the request stream of a workload; ingest-live's
// readers send the hot-repeat mix, cluster-fanout the cold-mix stream.
func queryStream(workload string, seed int64, n int) []request {
	switch workload {
	case wlHotRepeat, wlIngestLive:
		return hotStream(seed, n)
	default:
		return coldStream(seed, n)
	}
}

// baseLog generates the seeded base clinic log.
func baseLog(seed int64) (*wlog.Log, error) {
	return clinic.Generate(baseInstances, subSeed(seed, "base-log"))
}

// appendBatch is one append request: a complete clinic instance as a
// JSONL body, with its records for the reference log.
type appendBatch struct {
	body    []byte
	records []wlog.Record
}

// appendStream returns n append batches: complete instances of a second
// seeded clinic log, renumbered so their wids and lsns continue the base
// log's. Concatenated after base in order, they form a Definition 2 valid
// log.
func appendStream(base *wlog.Log, seed int64, n int) ([]appendBatch, error) {
	// The second log over-generates: about 10% of instances are left
	// incomplete by the generator and are skipped.
	src, err := clinic.Generate(n+n/4+8, subSeed(seed, "append-log"))
	if err != nil {
		return nil, err
	}
	var maxWID, lastLSN uint64
	for _, r := range base.Records() {
		if r.WID > maxWID {
			maxWID = r.WID
		}
		if r.LSN > lastLSN {
			lastLSN = r.LSN
		}
	}
	// Group the second log's records by instance (Records is lsn order, so
	// each group is in is-lsn order) and keep the complete ones.
	instances := make(map[uint64][]wlog.Record)
	complete := make(map[uint64]bool)
	for _, r := range src.Records() {
		instances[r.WID] = append(instances[r.WID], r)
		if r.IsEnd() {
			complete[r.WID] = true
		}
	}
	out := make([]appendBatch, 0, n)
	for _, wid := range src.WIDs() {
		if len(out) == n {
			break
		}
		if !complete[wid] {
			continue
		}
		maxWID++
		var b appendBatch
		for _, r := range instances[wid] {
			lastLSN++
			r.WID, r.LSN = maxWID, lastLSN
			line, err := logio.EncodeRecord(r)
			if err != nil {
				return nil, fmt.Errorf("encode append record: %w", err)
			}
			b.body = append(append(b.body, line...), '\n')
			b.records = append(b.records, r)
		}
		out = append(out, b)
	}
	if len(out) < n {
		return nil, fmt.Errorf("append log yielded %d complete instances, want %d", len(out), n)
	}
	return out, nil
}
