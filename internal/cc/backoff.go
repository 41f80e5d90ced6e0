package cc

import (
	"context"
	"math/rand"
	"time"
)

// The one jittered doubling backoff: NO_WAIT retries replayed at spin
// speed livelock against each other, and a randomized, growing pause is
// what desynchronizes them. Every retry loop — the public Retry policy,
// the harness's and the checker's clients, Chiller's hot-wave and
// inner-region re-request ladders — composes these three with its own
// base, cap and attempt budget.

// BackoffCeiling is the widest pause before the given retry (1-based):
// base, doubled once per earlier retry, capped at max when max > 0.
func BackoffCeiling(retry int, base, max time.Duration) time.Duration {
	c := base
	for i := 1; i < retry && (max <= 0 || c < max); i++ {
		c *= 2
	}
	if max > 0 && c > max {
		return max
	}
	return c
}

// Jitter draws a pause uniformly from (0, ceiling]. A nil rng draws from
// the global source; a seeded one makes the sequence reproducible.
func Jitter(rng *rand.Rand, ceiling time.Duration) time.Duration {
	if rng != nil {
		return time.Duration(rng.Int63n(int64(ceiling)) + 1)
	}
	return time.Duration(rand.Int63n(int64(ceiling)) + 1)
}

// Sleep pauses for d, or until ctx is done — reporting false so a retry
// ladder stops at once on cancellation instead of burning its remaining
// rungs.
func Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
