package cluster

import (
	"testing"
	"time"
)

// The backoff schedule is pure arithmetic over (attempt, jitter draw), so
// every property — exponential growth, the cap, jitter bounds — is asserted
// exactly, with no sleeping and no sampling.

func TestShardBackoffExponentialGrowth(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond,  // attempt 1
		20 * time.Millisecond,  // attempt 2
		40 * time.Millisecond,  // attempt 3
		80 * time.Millisecond,  // attempt 4
		160 * time.Millisecond, // attempt 5
	}
	for i, w := range want {
		if got := backoffDelay(i+1, 0.5); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestShardBackoffCap(t *testing.T) {
	// 10ms·2⁷ = 1.28s is the first raw delay past the 1s cap.
	if got := backoffDelay(7, 0.5); got != 640*time.Millisecond {
		t.Fatalf("backoffDelay(7) = %v, want 640ms (below the cap)", got)
	}
	for attempt := 8; attempt <= 64; attempt++ {
		if got := backoffDelay(attempt, 0.5); got != backoffMax {
			t.Fatalf("backoffDelay(%d) = %v, want the %v cap", attempt, got, backoffMax)
		}
	}
	// Huge attempt numbers must not overflow past the cap.
	if got := backoffDelay(1<<20, 0.5); got != backoffMax {
		t.Fatalf("backoffDelay(1<<20) = %v, want the cap", got)
	}
}

func TestShardBackoffJitterBounds(t *testing.T) {
	// u=0 is the lower edge (1-jitter), u→1 the upper (1+jitter); u=0.5 is
	// the raw delay exactly.
	if got := backoffDelay(1, 0); got != 8*time.Millisecond {
		t.Errorf("backoffDelay(1, u=0) = %v, want 8ms", got)
	}
	if got := backoffDelay(1, 0.5); got != 10*time.Millisecond {
		t.Errorf("backoffDelay(1, u=0.5) = %v, want 10ms", got)
	}
	if got := backoffDelay(1, 0.999999); got >= 12*time.Millisecond || got < 10*time.Millisecond {
		t.Errorf("backoffDelay(1, u→1) = %v, want in [10ms, 12ms)", got)
	}
	// Bounds hold at every attempt, including at the cap.
	for attempt := 1; attempt <= 10; attempt++ {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			raw := backoffDelay(attempt, 0.5)
			got := backoffDelay(attempt, u)
			lo := time.Duration(float64(raw) * 0.8)
			hi := time.Duration(float64(raw) * 1.2)
			if got < lo || got > hi {
				t.Fatalf("backoffDelay(%d, %v) = %v outside [%v, %v]", attempt, u, got, lo, hi)
			}
		}
	}
}

func TestShardBackoffDefaults(t *testing.T) {
	// The schedule is fixed: 10ms base, 2x growth, 1s cap, ±20% jitter.
	if got := backoffDelay(1, 0.5); got != backoffBase {
		t.Errorf("backoffDelay(1) = %v, want %v", got, backoffBase)
	}
	if got := backoffDelay(100, 0.5); got != backoffMax {
		t.Errorf("backoffDelay(100) = %v, want the %v cap", got, backoffMax)
	}
	if got := backoffDelay(1, 0); got != time.Duration(float64(backoffBase)*0.8) {
		t.Errorf("backoffDelay(1, u=0) = %v, want base·0.8", got)
	}
	// Attempt < 1 is clamped to the first delay.
	if got := backoffDelay(0, 0.5); got != backoffBase {
		t.Errorf("backoffDelay(0) = %v, want %v", got, backoffBase)
	}
}
