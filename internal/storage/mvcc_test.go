package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A snapshot read that waits on the bucket mutex while the watermark
// rises past it and the sweep queues behind it must end stale: the
// sweep is free to drop the version the snapshot needs the moment the
// mutex is released, so a watermark test made before the mutex was
// taken would answer from a chain that may already be cut.
func TestReadAtRechecksWatermarkUnderMutex(t *testing.T) {
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 1)
	tbl.UpsertAt(1, []byte("v1"), 1)
	tbl.UpsertAt(1, []byte("v2"), 2)
	b := tbl.Bucket(1)

	b.mu.Lock()
	read := make(chan error)
	go func() {
		_, err := tbl.ReadAt(1, 1)
		read <- err
	}()
	// Give the reader time to block on the mutex. The outcome does not
	// depend on it: the read holds the mutex when it tests the
	// watermark, so it is stale whichever of it and the sweep runs first.
	time.Sleep(5 * time.Millisecond)
	swept := make(chan struct{})
	go func() {
		s.SetWatermark(2)
		close(swept)
	}()
	for s.Watermark() < 2 {
		runtime.Gosched()
	}
	b.mu.Unlock()
	<-swept
	if err := <-read; !errors.Is(err, ErrStaleRead) {
		t.Fatalf("ReadAt(ts 1) across a watermark raised to 2: %v, want ErrStaleRead", err)
	}
	if n := tbl.ChainDepth(1); n != 0 {
		t.Fatalf("chain depth %d with the live version at the watermark, want 0", n)
	}
	if v, err := tbl.ReadAt(1, 2); err != nil || string(v) != "v2" {
		t.Fatalf("ReadAt(ts 2) = %q, %v; want v2", v, err)
	}
}

// keyOracle is every version one key has had, oldest first.
type keyOracle struct {
	mu       sync.Mutex
	versions []stamped
}

// visible is the oracle's answer for a snapshot at ts: the newest
// version at or below it (nil: absent or deleted).
func (o *keyOracle) visible(ts uint64) []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	var v []byte
	for _, s := range o.versions {
		if s.ts <= ts {
			v = s.value
		}
	}
	return v
}

// Writers, two watermark tickers (a deployment's GC loop and a
// benchmark's may both run one) and snapshot readers share one store.
// Each writer owns its keys and logs every version it commits to the
// key's oracle before it releases the commit timestamp, so a snapshot
// at the clock's stable point must read exactly what the oracle says —
// or be stale, if the watermark passed it. Once the writers are done
// and the watermark reaches the last commit, no chain is left.
func TestSweepAgainstConcurrentOracles(t *testing.T) {
	const (
		keys, writers, writes = 64, 4, 2000
		retention             = 16
	)
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 8)
	clock := NewClock()
	oracles := make([]keyOracle, keys)

	var done atomic.Bool
	var bg sync.WaitGroup
	for range 2 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for !done.Load() {
				if w := clock.Stable(); w > retention {
					s.SetWatermark(w - retention)
				}
				runtime.Gosched()
			}
		}()
	}
	var reads, stale atomic.Int64
	for r := range 2 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				k := rng.Intn(keys)
				snap := clock.Stable()
				snap -= min(snap, uint64(rng.Intn(2*retention)))
				got, err := tbl.ReadAt(Key(k), snap)
				reads.Add(1)
				if errors.Is(err, ErrStaleRead) {
					stale.Add(1)
					continue
				}
				want := oracles[k].visible(snap)
				if want == nil && !errors.Is(err, ErrNotFound) || want != nil && (err != nil || !bytes.Equal(got, want)) {
					t.Errorf("ReadAt(%d, %d) = %x, %v; oracle has %x", k, snap, got, err, want)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			live := map[int]bool{}
			for range writes {
				k := w + writers*rng.Intn(keys/writers)
				ts := clock.Reserve()
				v := binary.LittleEndian.AppendUint64(nil, ts)
				var err error
				switch {
				case !live[k]:
					err = tbl.Write(Key(k), v, ts, WriteInsert)
				case rng.Intn(4) == 0:
					err, v = tbl.Write(Key(k), nil, ts, WriteDelete), nil
				default:
					err = tbl.PutAt(Key(k), v, ts)
				}
				if err != nil {
					t.Errorf("writer %d, key %d at ts %d: %v", w, k, ts, err)
				}
				live[k] = v != nil
				o := &oracles[k]
				o.mu.Lock()
				o.versions = append(o.versions, stamped{ts, v})
				o.mu.Unlock()
				clock.Release(ts)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	bg.Wait()
	t.Logf("%d snapshot reads, %d stale", reads.Load(), stale.Load())

	last := clock.Stable()
	s.SetWatermark(last)
	for k := range oracles {
		if n := tbl.ChainDepth(Key(k)); n != 0 {
			t.Errorf("key %d: chain depth %d with the watermark at the last commit, want 0", k, n)
		}
		got, err := tbl.ReadAt(Key(k), last)
		if want := oracles[k].visible(last); want == nil && !errors.Is(err, ErrNotFound) || want != nil && !bytes.Equal(got, want) {
			t.Errorf("key %d at the last commit = %x, %v; oracle has %x", k, got, err, want)
		}
	}
}
