package storage

import (
	"sync"
	"testing"

	"github.com/chillerdb/chiller/internal/testutil"
)

// clockModel is the Clock's definition: the set of in-flight timestamps,
// Stable the largest S below every one of them (next when none).
type clockModel struct {
	next     uint64
	inflight map[uint64]struct{}
}

func (m *clockModel) stable() uint64 {
	s := m.next
	for ts := range m.inflight {
		s = min(s, ts-1)
	}
	return s
}

// Random Reserve / Release / AdvanceTo sequences — releases in any order,
// repeated and unknown releases, skips ahead with reservations in flight,
// backlogs past the ring's first doubling — must give the model's Stable
// after every step.
func TestClockAgainstModel(t *testing.T) {
	rng := testutil.Rand(t, 45)
	for run := 0; run < 200; run++ {
		c := NewClock()
		m := &clockModel{inflight: map[uint64]struct{}{}}
		var held []uint64
		backlog := 1 + rng.Intn(300)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 50 && len(held) < backlog:
				ts := c.Reserve()
				m.next++
				if ts != m.next {
					t.Fatalf("run %d step %d: Reserve %d, want %d", run, step, ts, m.next)
				}
				m.inflight[ts] = struct{}{}
				held = append(held, ts)
			case r < 95 && len(held) > 0:
				i := rng.Intn(len(held))
				ts := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				c.Release(ts)
				delete(m.inflight, ts)
			case r < 97:
				// Any timestamp: 0, released, never reserved (no-ops) or
				// in flight.
				ts := uint64(rng.Intn(int(m.next) + 3))
				c.Release(ts)
				delete(m.inflight, ts)
				held = removeTS(held, ts)
			default:
				ts := uint64(max(0, int(m.next)+rng.Intn(20)-5))
				c.AdvanceTo(ts)
				m.next = max(m.next, ts)
			}
			if got, want := c.Stable(), m.stable(); got != want {
				t.Fatalf("run %d step %d: Stable %d, want %d (%d in flight)", run, step, got, want, len(m.inflight))
			}
		}
	}
}

func removeTS(held []uint64, ts uint64) []uint64 {
	for i, h := range held {
		if h == ts {
			held[i] = held[len(held)-1]
			return held[:len(held)-1]
		}
	}
	return held
}

// Under concurrent reservations Stable never reaches a timestamp still
// in flight, never moves backward, and ends at the last reservation once
// everything is released.
func TestClockStableConcurrent(t *testing.T) {
	c := NewClock()
	const workers, each = 4, 5000
	var wg sync.WaitGroup
	errs := make(chan string, workers+1)
	done := make(chan struct{})
	go func() {
		defer close(errs)
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			s := c.Stable()
			if s < last {
				errs <- "Stable moved backward"
				return
			}
			last = s
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < each; i++ {
				ts := c.Reserve()
				mine = append(mine, ts)
				if s := c.Stable(); s >= mine[0] {
					errs <- "Stable reached a timestamp in flight"
					return
				}
				if len(mine) == 3 || i == each-1 {
					// Release out of order: newest first.
					for j := len(mine) - 1; j >= 0; j-- {
						c.Release(mine[j])
					}
					mine = mine[:0]
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	for e := range errs {
		t.Fatal(e)
	}
	if got := c.Stable(); got != workers*each {
		t.Fatalf("Stable %d after every release, want %d", got, workers*each)
	}
}
