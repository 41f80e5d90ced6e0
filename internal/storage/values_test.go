package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// valueOf is the value key k holds after its seq'th write: the key, the
// sequence number, then a filler whose length and bytes both follow from
// them, so that a torn or misplaced value cannot pass for another. The
// length changes every fourth write, so three writes in four overwrite
// in place and the fourth resizes.
func valueOf(k Key, seq uint64) []byte {
	v := binary.LittleEndian.AppendUint64(nil, uint64(k))
	v = binary.LittleEndian.AppendUint64(v, seq)
	return append(v, bytes.Repeat([]byte{byte(k) ^ byte(seq)}, int(16+(uint64(k)*7+seq/4)%200))...)
}

// Writers overwrite a small table until its chunks have been compacted
// several times — in place, and by resizes that leave dead bytes —
// while readers copy values out with Get and ReadAt into buffers of
// their own. Every value read must be one a writer wrote, whole: a read
// that copied a record while a writer rewrote it in place, or while
// compaction moved it, would be torn. Each reader also keeps values it
// read and re-checks them, byte for byte, against the copy it took: its
// buffer, never reset, must not be written again, and no write may
// reach it. Afterwards every key holds its writer's last value and the
// table's dead bytes are below the compaction threshold. Run it under
// -race: a write into bytes a reader copies outside the bucket mutex is
// a race.
func TestCompactionUnderLoad(t *testing.T) {
	const (
		keys, writers = 48, 3
		compactions   = 5
	)
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 8)
	clock := NewClock()
	last := make([]atomic.Uint64, keys) // seq of each key's last write, 0 before it

	var done atomic.Bool
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var buf Buf
			whole := func(k Key, v []byte) bool {
				return cap(v) == len(v) && len(v) >= 16 && binary.LittleEndian.Uint64(v) == uint64(k) && bytes.Equal(v, valueOf(k, binary.LittleEndian.Uint64(v[8:])))
			}
			type held struct{ got, want []byte }
			var kept []held
			keep := func(got []byte) {
				want := append([]byte(nil), got...)
				if len(kept) < 256 {
					kept = append(kept, held{got, want})
				} else {
					kept[rng.Intn(len(kept))] = held{got, want}
				}
			}
			for !done.Load() {
				k := Key(rng.Intn(keys))
				if v, _, err := tbl.Bucket(k).GetInto(k, &buf); err == nil {
					if !whole(k, v) {
						t.Errorf("Get(%d) = %x: not a value key %d was written", k, v, k)
						return
					}
					keep(v)
				}
				if v, err := tbl.ReadAtInto(k, clock.Stable(), &buf); err == nil {
					if !whole(k, v) {
						t.Errorf("ReadAt(%d) = %x: not a value key %d was written", k, v, k)
						return
					}
					keep(v)
				} else if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrStaleRead) {
					t.Errorf("ReadAt(%d): %v", k, err)
					return
				}
				for _, h := range kept {
					if !bytes.Equal(h.got, h.want) {
						t.Errorf("a value changed under its reader: %x, was %x", h.got, h.want)
						return
					}
				}
			}
		}()
	}

	ran := func() int {
		tbl.vals.mu.Lock()
		defer tbl.vals.mu.Unlock()
		return tbl.vals.compactions
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= 20 || ran() < compactions && seq < 1e6; seq++ {
				for k := Key(w); k < keys; k += writers {
					ts := clock.Reserve()
					if err := tbl.Write(k, valueOf(k, seq), ts, WriteUpsert); err != nil {
						t.Errorf("write of key %d: %v", k, err)
						return
					}
					last[k].Store(seq)
					clock.Release(ts)
					if ts > 64 {
						s.SetWatermark(ts - 64)
					}
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()

	if n := ran(); n < compactions {
		t.Fatalf("%d compactions, want %d", n, compactions)
	}
	for k := Key(0); k < keys; k++ {
		if v, _, err := tbl.Bucket(k).Get(k); err != nil || !bytes.Equal(v, valueOf(k, last[k].Load())) {
			t.Errorf("key %d = %x, %v; want its write %d", k, v, err, last[k].Load())
		}
	}
	tbl.vals.mu.Lock()
	defer tbl.vals.mu.Unlock()
	if tbl.vals.due() {
		t.Errorf("%d of %d chunk bytes dead after the last write, past the compaction threshold", tbl.vals.used-tbl.vals.live, tbl.vals.used)
	}
}
