package main

// Load generators: closed-loop query clients and the open-loop appender.

import (
	"bytes"
	"encoding/json"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// result is one query request as the client saw it.
type result struct {
	req       int32         // index into the distinct request list
	start     time.Duration // since the run's epoch
	dur       time.Duration // client-observed round trip
	status    int           // HTTP status; 0 on a transport error
	bytes     int           // response body length
	cached    bool
	elapsedUS int64 // the server's own elapsed_us (measured before encode)
	count     int
	digest    uint64 // answer digest, when the load decodes answers
	span      int64  // client.request span id, in the traced half of a traced run
}

func (r result) ok() bool { return r.status == http.StatusOK }

// queryLoad is a closed-loop query load over a fixed request stream.
type queryLoad struct {
	fleet    *fleet
	distinct []request
	bodies   [][]byte
	stream   []int32 // indexes into distinct, in send order
	cursor   atomic.Int64
	// decode makes every client decode the full answer and digest it;
	// otherwise only the response head (cached, elapsed_us, count) is read.
	decode bool
	epoch  time.Time
	// spans, when set, receives each completed request's spans.
	spans *spanStore
}

func newQueryLoad(f *fleet, reqs []request, decode bool, epoch time.Time) *queryLoad {
	q := &queryLoad{fleet: f, decode: decode, epoch: epoch}
	index := make(map[string]int32)
	for _, r := range reqs {
		k := r.key()
		i, ok := index[k]
		if !ok {
			i = int32(len(q.distinct))
			index[k] = i
			q.distinct = append(q.distinct, r)
			q.bodies = append(q.bodies, r.body())
		}
		q.stream = append(q.stream, i)
	}
	return q
}

// run drives that many closed-loop clients until the deadline and returns
// every request they completed.
func (q *queryLoad) run(clients int, until time.Time) []result {
	var wg sync.WaitGroup
	out := make([][]result, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(until) {
				i := q.cursor.Add(1) - 1
				r := q.send(q.stream[i%int64(len(q.stream))], &buf)
				if q.spans != nil && r.ok() {
					q.spans.recordRequest(&r)
				}
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// sendOnce sends one distinct request outside any load loop.
func (q *queryLoad) sendOnce(req int32) result {
	var buf bytes.Buffer
	return q.send(req, &buf)
}

func (q *queryLoad) send(req int32, buf *bytes.Buffer) result {
	r := result{req: req}
	t0 := time.Now()
	r.start = t0.Sub(q.epoch)
	resp, err := q.fleet.client.Post(q.fleet.url("/v1/query"), "application/json", bytes.NewReader(q.bodies[req]))
	if err != nil {
		r.dur = time.Since(t0)
		return r
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(t0)
	if err != nil {
		return r
	}
	r.status, r.bytes = resp.StatusCode, buf.Len()
	if r.status != http.StatusOK {
		return r
	}
	body := buf.Bytes()
	r.cached = headField(body, `"cached":`) == "true"
	r.elapsedUS, _ = strconv.ParseInt(headField(body, `"elapsed_us":`), 10, 64)
	r.count, _ = strconv.Atoi(headField(body, `"count":`))
	if q.decode {
		var a answerDoc
		if json.Unmarshal(body, &a) != nil {
			r.status = 0 // an undecodable 200 is a failed request
			return r
		}
		r.digest = a.digest()
	}
	return r
}

// headField returns the raw scalar following key in the response head:
// the fields the server writes before the (possibly large) incident list.
func headField(body []byte, key string) string {
	head := body
	if end := bytes.Index(body, []byte(`"incidents":`)); end >= 0 {
		head = body[:end]
	}
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	v := head[i+len(key):]
	j := bytes.IndexAny(v, ",}")
	if j < 0 {
		return ""
	}
	return string(bytes.TrimSpace(v[:j]))
}

// answerDoc is the answer part of a query response.
type answerDoc struct {
	Count     int  `json:"count"`
	Exists    bool `json:"exists"`
	Incidents []struct {
		WID  uint64   `json:"wid"`
		Seqs []uint64 `json:"seqs"`
	} `json:"incidents"`
}

func (a answerDoc) digest() uint64 {
	d := newDigest(a.Count, a.Exists)
	for _, inc := range a.Incidents {
		d.incident(inc.WID, inc.Seqs)
	}
	return d.sum()
}

// answerDigest hashes an answer: its count, its existence bit and the
// incidents it lists, in order.
type answerDigest struct{ h hash.Hash64 }

func newDigest(count int, exists bool) *answerDigest {
	d := &answerDigest{h: fnv.New64a()}
	d.word(uint64(count))
	if exists {
		d.word(1)
	} else {
		d.word(0)
	}
	return d
}

func (d *answerDigest) word(x uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *answerDigest) incident(wid uint64, seqs []uint64) {
	d.word(wid)
	d.word(uint64(len(seqs)))
	for _, s := range seqs {
		d.word(s)
	}
}

func (d *answerDigest) sum() uint64 { return d.h.Sum64() }

// appendResult is one append request of the open-loop appender.
type appendResult struct {
	late    time.Duration // sent minus due
	latency time.Duration // done minus due: a stall also delays later batches
	status  int
	records int // records the server acknowledged
	bytes   int // request body length
}

// runAppender posts the batches open-loop: batch k is due at
// start + k/rate, whatever happened to earlier batches. One sender posts
// them in order (the server serializes appends to a log anyway), and each
// latency is timed from when the batch was due, so a stall counts against
// every batch it delays.
func runAppender(f *fleet, batches []appendBatch, rate float64, start time.Time) []appendResult {
	out := make([]appendResult, 0, len(batches))
	period := time.Duration(float64(time.Second) / rate)
	for k, b := range batches {
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		r := appendResult{late: sent.Sub(due), bytes: len(b.body)}
		resp, err := f.client.Post(f.url("/v1/logs/"+logName+"/append"), "application/x-ndjson", bytes.NewReader(b.body))
		if err == nil {
			var doc struct {
				Appended int `json:"appended"`
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				r.status = resp.StatusCode
				if json.Unmarshal(body, &doc) == nil && r.status == http.StatusOK {
					r.records = doc.Appended
				}
			}
		}
		r.latency = time.Since(due)
		out = append(out, r)
	}
	return out
}
