package chiller

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
)

// Retry is a jittered-exponential-backoff retry policy for transient
// aborts (NO_WAIT lock conflicts, OCC validation failures, unreachable
// participants). The zero value is a sensible default: retry until the
// context is done, backing off from 2µs doubling to 1ms, the same
// policy the benchmark harness's closed-loop clients use. Identical
// requests replayed at spin speed livelock against each other under
// NO_WAIT; the randomized backoff is what desynchronizes them.
type Retry struct {
	// MaxAttempts bounds the total number of attempts (first try
	// included). 0 means unbounded: retry until commit, a non-retryable
	// abort, or ctx done.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling (default 2µs).
	// Each retry sleeps a uniformly random duration in (0, ceiling],
	// and the ceiling doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 1ms).
	MaxBackoff time.Duration
	// Rand supplies the jitter randomness; nil draws from the global
	// math/rand source. Inject a seeded *rand.Rand to make a policy's
	// backoff sequence deterministic (tests, replayable harnesses).
	// A *rand.Rand is not safe for concurrent use: give each goroutine
	// its own policy value with its own Rand, or leave Rand nil.
	Rand *rand.Rand
}

// base and cap return the policy's effective bounds.
func (r Retry) base() time.Duration {
	if r.BaseBackoff > 0 {
		return r.BaseBackoff
	}
	return 2 * time.Microsecond
}

func (r Retry) cap() time.Duration {
	if r.MaxBackoff > 0 {
		return r.MaxBackoff
	}
	return time.Millisecond
}

// ceiling returns the backoff ceiling for the given retry (1-based: the
// sleep after the first failed attempt uses retry 1): base doubling per
// retry, capped at MaxBackoff.
func (r Retry) ceiling(retry int) time.Duration {
	return cc.BackoffCeiling(retry, r.base(), r.cap())
}

// jitter draws the sleep before the given retry: uniform in
// (0, ceiling(retry)].
func (r Retry) jitter(retry int) time.Duration { return cc.Jitter(r.Rand, r.ceiling(retry)) }

// Do runs fn until it commits, fails a non-retryable way, exhausts
// MaxAttempts, or ctx is done — whichever comes first. The returned
// Result and error are the last attempt's.
func (r Retry) Do(ctx context.Context, fn func(context.Context) (Result, error)) (Result, error) {
	for attempt := 1; ; attempt++ {
		res, err := fn(ctx)
		if err == nil || !Retryable(err) {
			return res, err
		}
		if r.MaxAttempts > 0 && attempt >= r.MaxAttempts {
			return res, err
		}
		if !cc.Sleep(ctx, r.jitter(attempt)) {
			return res, fmt.Errorf("chiller: retry abandoned after %d attempts: %w", attempt, ctx.Err())
		}
	}
}

// ExecuteWithRetry is Execute wrapped in the retry policy: transient
// aborts are retried with jittered backoff, every other outcome is
// returned as-is.
func (db *DB) ExecuteWithRetry(ctx context.Context, policy Retry, proc string, args ...int64) (Result, error) {
	return policy.Do(ctx, func(ctx context.Context) (Result, error) {
		return db.Execute(ctx, proc, args...)
	})
}
