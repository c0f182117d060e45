package stream

import (
	"sync"
	"testing"

	"wlq/internal/clinic"
)

// The Monitor's concurrency contract under the race detector: one writer
// ingesting a full clinic log while readers hammer Query, the accessors and
// the RLock/Index window the server's query path uses. Answers read mid-
// stream must be internally consistent (a frozen view), and the final state
// must match a serial ingest of the same log.
func TestMonitorConcurrentIngestQuery(t *testing.T) {
	l, err := clinic.Generate(80, 99)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(nil)
	if err := m.Watch("refer", "GetRefer -> SeeDoctor"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: ad-hoc queries, accessors, and the explicit RLock window.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Query("GetRefer -> PayTreatment"); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				_ = m.Alerts()
				_ = m.Records()
				_ = m.LastLSN()
				_ = m.FiredInstances("refer")
				// The server's pattern: freeze the index, read it twice;
				// both reads must agree because appends are locked out.
				m.RLock()
				a := m.Index().TotalRecords()
				b := m.Index().TotalRecords()
				m.RUnlock()
				if a != b {
					t.Errorf("Index changed under RLock: %d then %d", a, b)
					return
				}
			}
		}()
	}

	// The writer: the whole log, one record at a time.
	for i := 0; i < l.Len(); i++ {
		if err := m.Ingest(l.Record(i)); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final state must equal a serial ingest.
	serial := NewMonitor(nil)
	if err := serial.Watch("refer", "GetRefer -> SeeDoctor"); err != nil {
		t.Fatal(err)
	}
	if err := serial.IngestLog(l); err != nil {
		t.Fatal(err)
	}
	if m.Records() != serial.Records() || m.LastLSN() != serial.LastLSN() {
		t.Fatalf("concurrent state diverged: %d/%d records, lsn %d/%d",
			m.Records(), serial.Records(), m.LastLSN(), serial.LastLSN())
	}
	if m.FiredInstances("refer") != serial.FiredInstances("refer") {
		t.Fatalf("alert counts diverged: %d vs %d",
			m.FiredInstances("refer"), serial.FiredInstances("refer"))
	}
	got, err := m.Query("GetRefer -> SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Query("GetRefer -> SeeDoctor")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("final answers diverged:\nconcurrent: %s\nserial:     %s", got, want)
	}
}

// Validate must be non-mutating: validating the same record repeatedly,
// interleaved with ingests, never changes the accept/reject outcome the
// subsequent Ingest sees.
func TestMonitorValidateDoesNotMutate(t *testing.T) {
	l, err := clinic.Generate(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(nil)
	for i := 0; i < l.Len(); i++ {
		r := l.Record(i)
		for k := 0; k < 3; k++ {
			if err := m.Validate(r); err != nil {
				t.Fatalf("Validate record %d (pass %d): %v", i, k, err)
			}
		}
		// A wrong-lsn probe must reject without perturbing state.
		bad := r
		bad.LSN += 7
		if err := m.Validate(bad); err == nil {
			t.Fatalf("Validate accepted lsn gap at record %d", i)
		}
		if err := m.Ingest(r); err != nil {
			t.Fatalf("Ingest record %d after Validate: %v", i, err)
		}
	}
}

// NewMonitorOn over a pre-loaded index must continue the lsn and seq
// sequences where the snapshot ends — the startup path of live ingestion.
func TestMonitorOnPreloadedBackend(t *testing.T) {
	l, err := clinic.Generate(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewMonitor(nil)
	if err := serial.IngestLog(l); err != nil {
		t.Fatal(err)
	}

	// Preload a fresh index with the same records, then resume.
	pre := NewMonitor(nil)
	if err := pre.IngestLog(l); err != nil {
		t.Fatal(err)
	}
	resumed := NewMonitorOn(nil, pre.ix)
	if resumed.LastLSN() != serial.LastLSN() {
		t.Fatalf("resumed lsn %d, want %d", resumed.LastLSN(), serial.LastLSN())
	}
	// The next append continues the global sequence; an old lsn is refused.
	r := l.Record(l.Len() - 1)
	if err := resumed.Ingest(r); err == nil {
		t.Fatal("resumed monitor re-accepted an already-ingested record")
	}
}
