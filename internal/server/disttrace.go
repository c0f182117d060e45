package server

import (
	"wlq/internal/cluster"
	"wlq/internal/flightrec"
)

// Helpers bridging the cluster tier's distributed-tracing results into the
// flight recorder.

// workerSummaryOf converts a cluster fan-out into the flight recorder's
// worker summary, per-worker detail included.
func workerSummaryOf(fan cluster.Fanout) *flightrec.WorkerSummary {
	ws := &flightrec.WorkerSummary{
		Workers:   fan.Workers,
		Attempted: fan.Attempted,
		Succeeded: fan.Succeeded,
		Failed:    fan.Failed,
		Skipped:   fan.Skipped,
		Hedged:    fan.Hedged,
		Retries:   fan.Retries,
		HedgeWins: fan.HedgeWins,
		TraceID:   fan.TraceID,
	}
	for _, c := range fan.PerWorker {
		ws.PerWorker = append(ws.PerWorker, flightrec.WorkerDetail{
			Worker:      c.Worker,
			WIDs:        c.WIDs,
			Status:      c.Status,
			Attempts:    c.Attempts,
			Retries:     c.Retries,
			Hedges:      c.Hedges,
			HedgeWon:    c.HedgeWon,
			BreakerSkip: c.BreakerSkip,
			ElapsedUS:   c.ElapsedUS,
			Incidents:   c.Incidents,
			TraceSpans:  c.TraceSpans,
			Error:       c.Error,
		})
	}
	return ws
}
