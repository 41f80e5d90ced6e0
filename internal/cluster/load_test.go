package cluster

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
)

// countLoader counts records and fails the failAt'th (failAt > 0).
type countLoader struct {
	calls  atomic.Int64
	failAt int64
}

var errLoad = errors.New("load failed")

func (*countLoader) CreateTable(storage.TableID, int) {}

func (l *countLoader) LoadRecord(storage.TableID, storage.Key, []byte) error {
	if n := l.calls.Add(1); l.failAt > 0 && n == l.failAt {
		return errLoad
	}
	return nil
}

// Every slice runs exactly once, at most GOMAXPROCS at a time, and every
// record reaches the Loader.
func TestLoadSlicesRunsEverySliceOnce(t *testing.T) {
	testutil.CheckLeaks(t)
	for _, slices := range []int{0, 1, 2, 3, 4, 7, 64} {
		var l countLoader
		ran := make([]atomic.Int32, slices)
		var running, peak atomic.Int32
		var mu sync.Mutex
		err := LoadSlices(&l, slices, func(i int, load LoadFunc) error {
			n := running.Add(1)
			defer running.Add(-1)
			mu.Lock()
			peak.Store(max(peak.Load(), n))
			mu.Unlock()
			ran[i].Add(1)
			for k := 0; k < 10; k++ {
				if err := load(1, storage.Key(i*10+k), nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d slices: %v", slices, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Errorf("%d slices: slice %d ran %d times", slices, i, n)
			}
		}
		if got := l.calls.Load(); got != int64(10*slices) {
			t.Errorf("%d slices: %d records loaded, want %d", slices, got, 10*slices)
		}
		if p := int(peak.Load()); p > runtime.GOMAXPROCS(0) {
			t.Errorf("%d slices: %d ran at once, GOMAXPROCS is %d", slices, p, runtime.GOMAXPROCS(0))
		}
	}
}

// Once a LoadRecord has failed, another slice's next record fails
// without reaching the Loader, and LoadSlices returns the Loader's error.
func TestLoadSlicesStopsOtherSlicesAtNextRecord(t *testing.T) {
	testutil.CheckLeaks(t)
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two slices running at once")
	}
	const failAt = 50
	l := countLoader{failAt: failAt}
	started, failed := make(chan struct{}), make(chan struct{})
	var nextErr error
	err := LoadSlices(&l, 2, func(i int, load LoadFunc) error {
		if i == 1 {
			close(started)
			<-failed
			nextErr = load(1, 1_000_000, nil)
			return nextErr
		}
		<-started
		defer close(failed)
		for k := 0; ; k++ {
			if err := load(1, storage.Key(k), nil); err != nil {
				return err
			}
		}
	})
	if !errors.Is(err, errLoad) {
		t.Fatalf("LoadSlices returned %v, want the Loader's error", err)
	}
	if nextErr == nil {
		t.Error("slice 1 loaded a record after slice 0's failed")
	}
	if n := l.calls.Load(); n != failAt {
		t.Errorf("%d records reached the Loader, want %d: one came after the failure", n, failAt)
	}
}

// Whichever record fails, the Loader's error is returned, not every
// slice starts, and no goroutine outlives the call.
func TestLoadSlicesStopsAtFirstError(t *testing.T) {
	testutil.CheckLeaks(t)
	const slices, each = 16, 1000
	for _, failAt := range []int64{1, 999, 1001, 7500} {
		l := countLoader{failAt: failAt}
		var started atomic.Int32
		err := LoadSlices(&l, slices, func(i int, load LoadFunc) error {
			started.Add(1)
			for k := 0; k < each; k++ {
				if err := load(1, storage.Key(i*each+k), nil); err != nil {
					return err
				}
			}
			return nil
		})
		if !errors.Is(err, errLoad) {
			t.Fatalf("failAt %d: LoadSlices returned %v, want the Loader's error", failAt, err)
		}
		if s := started.Load(); s == slices {
			t.Errorf("failAt %d: every slice started", failAt)
		}
	}
}
