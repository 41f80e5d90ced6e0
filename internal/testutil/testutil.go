// Package testutil holds shared test helpers. Production code must not
// import it.
package testutil

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// SeedEnv is the environment variable that overrides every
// testutil-seeded RNG, for replaying a failed randomized test:
//
//	CHILLER_SEED=12345 go test ./internal/check -run TestCheckerMatrix
var SeedEnv = "CHILLER_SEED"

// Seed returns the seed a randomized test should use: def normally, or
// the CHILLER_SEED override when set. Either way the seed is logged when
// the test fails, so every flake is reproducible.
func Seed(t testing.TB, def int64) int64 {
	seed := def
	if s := os.Getenv(SeedEnv); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("testutil: bad %s=%q: %v", SeedEnv, s, err)
		}
		seed = v
		t.Logf("testutil: %s=%d overrides default seed %d", SeedEnv, seed, def)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("testutil: reproduce with %s=%d", SeedEnv, seed)
		}
	})
	return seed
}

// Rand returns a rand.Rand seeded via Seed — the drop-in replacement for
// rand.New(rand.NewSource(def)) in randomized tests.
func Rand(t testing.TB, def int64) *rand.Rand {
	return rand.New(rand.NewSource(Seed(t, def)))
}

// CheckLeaks fails t if goroutines started during the test are still
// running when it ends: call it first in a test, and on cleanup it diffs
// runtime.Stack against the goroutines that existed at the call, giving
// stragglers two seconds to exit (Close paths return before the last
// goroutine has unwound its stack). Survivors are named by their
// top-of-stack function and creator — lane executors, WAL flushers, the
// GC loop, tcpnet readers. Not for parallel tests: goroutines of other
// tests would count as leaks.
func CheckLeaks(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		var leaked []string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
		}
		sort.Strings(leaked)
		t.Errorf("testutil: %d goroutine(s) outlived the test:\n%s", len(leaked), strings.Join(leaked, "\n"))
	})
}

// goroutines returns every live goroutine but the caller, keyed by ID,
// as "top function ... created by creator".
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // runtime.Stack lists the calling goroutine first
		}
		lines := strings.Split(strings.TrimSpace(g), "\n")
		id := strings.TrimSuffix(strings.TrimPrefix(lines[0], "goroutine "), ":")
		if sp := strings.IndexByte(id, ' '); sp >= 0 {
			id = id[:sp]
		}
		desc := lines[0]
		if len(lines) > 1 {
			desc += " " + strings.TrimSpace(lines[1])
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "created by ") {
				desc += " (" + l + ")"
			}
		}
		out[id] = desc
	}
	return out
}
