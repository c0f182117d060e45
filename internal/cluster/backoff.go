package cluster

import "time"

// The coordinator's retry schedule between attempts on one worker.
const (
	backoffBase   = 10 * time.Millisecond
	backoffMax    = time.Second
	backoffFactor = 2.0
	backoffJitter = 0.2
)

// backoffDelay returns the delay before retry attempt a (1-based), a capped
// exponential schedule with proportional jitter:
//
//	min(base·factor^(a−1), max) · (1 + jitter·(2u−1))
//
// with u drawn uniformly from [0,1) by the caller, so tests pass fixed
// values and get exact delays. The cap applies to the raw exponential term,
// so the jittered delay stays within ±jitter of max once the schedule
// saturates. Jitter matters under correlated failure: when every worker
// request of every in-flight query retries a recovering dependency, uniform
// spread is the difference between a ramp and a thundering herd.
func backoffDelay(attempt int, u float64) time.Duration {
	raw := float64(backoffBase)
	for i := 1; i < attempt && raw < float64(backoffMax); i++ {
		raw *= backoffFactor
	}
	raw = min(raw, float64(backoffMax))
	return time.Duration(raw * (1 + backoffJitter*(2*u-1)))
}
