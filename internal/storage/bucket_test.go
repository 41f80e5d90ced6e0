package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// The bucket header is one cache line and the entry shrank to pay for
// it; a field added to either shows up here, not as a slow lookup.
func TestBucketLayoutPinned(t *testing.T) {
	if got := unsafe.Sizeof(Bucket{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Bucket{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 56 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 56", got)
	}
}

// sameTag returns n distinct keys that share one fingerprint.
func sameTag(n int) []Key {
	keys := []Key{1}
	for k := Key(2); len(keys) < n; k++ {
		if tagOf(k) == tagOf(keys[0]) {
			keys = append(keys, k)
		}
	}
	return keys
}

// A fingerprint match is a hint, never an answer: keys with equal tags
// in one bucket, and one more past an overflow hop, stay distinct
// records.
func TestEqualFingerprints(t *testing.T) {
	b := NewStore().CreateTable(1, 1).Bucket(0)
	twins := sameTag(3)
	for i, k := range []Key{twins[0], twins[1], 100, 101, 102, 103, 104, 105, twins[2]} {
		if err := b.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.ChainLength() != 2 || len(b.overflow.entries) != 1 || b.overflow.entries[0].key != twins[2] {
		t.Fatalf("the third twin is not alone in the overflow bucket (chain %d)", b.ChainLength())
	}
	if err := b.Put(twins[1], []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(twins[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get(twins[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted twin: %v", err)
	}
	for k, want := range map[Key]byte{twins[1]: 42, twins[2]: 8} {
		if v, _, err := b.Get(k); err != nil || v[0] != want {
			t.Fatalf("twin %d = %v, %v; want %d", k, v, err, want)
		}
	}
	if err := b.Insert(twins[1], nil); !errors.Is(err, ErrExists) {
		t.Fatalf("re-inserting a live twin: %v", err)
	}
}

// Without MVCC a tombstone is a free slot: the next insert takes it,
// re-tags it and clears its dead bit, and the key that died there is not
// found through the new tenant's tag or its own.
func TestTombstoneSlotIsRetagged(t *testing.T) {
	b := NewStore().CreateTable(1, 1).Bucket(0)
	old, next := Key(1), Key(2)
	for tagOf(next) == tagOf(old) {
		next++
	}
	if err := b.Insert(old, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(old); err != nil {
		t.Fatal(err)
	}
	if b.dead != 1 || b.Len() != 0 {
		t.Fatalf("after delete: dead mask %08b, Len %d", b.dead, b.Len())
	}
	if err := b.Insert(next, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if len(b.entries) != 1 || b.dead != 0 || b.tags[0] != tagOf(next) {
		t.Fatalf("slot not recycled: %d entries, dead mask %08b, tag %#x (want %#x)", len(b.entries), b.dead, b.tags[0], tagOf(next))
	}
	if _, _, err := b.Get(old); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the slot's previous key: %v", err)
	}
	if err := b.Insert(old, []byte("z")); err != nil || len(b.entries) != 2 {
		t.Fatalf("re-insert of the deleted key: %v, %d entries", err, len(b.entries))
	}
}

// Under MVCC a tombstone still heads a version chain: another key's
// insert must not take its slot, and the key's own insert finds it and
// resurrects it in place.
func TestMVCCTombstoneIsKeptAndFound(t *testing.T) {
	s := NewStore()
	s.EnableMVCC()
	tbl := s.CreateTable(1, 1)
	b := tbl.Bucket(0)
	if err := tbl.InsertAt(1, []byte("a1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteAt(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PutAt(1, []byte("no"), 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of a deleted key: %v", err)
	}
	if err := tbl.InsertAt(2, []byte("b3"), 3); err != nil {
		t.Fatal(err)
	}
	if len(b.entries) != 2 || b.dead != 1 || b.entries[0].key != 1 {
		t.Fatalf("key 2 took key 1's tombstone: %d entries, dead mask %08b", len(b.entries), b.dead)
	}
	if v, err := tbl.ReadAt(1, 1); err != nil || string(v) != "a1" {
		t.Fatalf("ReadAt(1, ts 1) = %q, %v", v, err)
	}
	if _, err := tbl.ReadAt(1, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt(1, ts 3) after the delete: %v", err)
	}
	if _, _, err := b.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a deleted key: %v", err)
	}

	if err := tbl.InsertAt(1, []byte("a4"), 4); err != nil {
		t.Fatal(err)
	}
	if len(b.entries) != 2 || b.dead != 0 || tbl.ChainDepth(1) != 2 {
		t.Fatalf("not resurrected in place: %d entries, dead mask %08b, chain depth %d", len(b.entries), b.dead, tbl.ChainDepth(1))
	}
	for ts, want := range map[uint64]string{1: "a1", 4: "a4"} {
		if v, err := tbl.ReadAt(1, ts); err != nil || string(v) != want {
			t.Fatalf("ReadAt(1, ts %d) = %q, %v; want %q", ts, v, err, want)
		}
	}
	if _, err := tbl.ReadAt(1, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt(1, ts 3) between delete and re-insert: %v", err)
	}
}

// Every whole-chain walk reads liveness from the mask.
func TestWalksSkipDeadSlots(t *testing.T) {
	tbl := NewStore().CreateTable(1, 1)
	b := tbl.Bucket(0)
	live := map[Key]bool{}
	for k := Key(0); k < 20; k++ {
		if err := tbl.InsertAt(k, []byte{byte(k)}, uint64(k)); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	for _, k := range []Key{0, 7, 8, 19} { // first slot, both sides of a hop, last slot
		if err := b.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(live, k)
	}
	if b.Len() != len(live) || tbl.Len() != len(live) {
		t.Fatalf("Len = %d / %d, want %d", b.Len(), tbl.Len(), len(live))
	}
	check := func(walk string, seen map[Key]uint64) {
		t.Helper()
		if len(seen) != len(live) {
			t.Fatalf("%s saw %d records, want %d", walk, len(seen), len(live))
		}
		for k, ts := range seen {
			if !live[k] || ts != uint64(k) {
				t.Fatalf("%s: key %d (ts %d) is dead or mis-stamped", walk, k, ts)
			}
		}
	}
	seen := map[Key]uint64{}
	for _, r := range b.SnapshotTS() {
		seen[r.Key] = r.TS
	}
	check("SnapshotTS", seen)
	seen = map[Key]uint64{}
	tbl.RangeTS(func(k Key, v []byte, _, ts uint64) bool { seen[k] = ts; return v[0] == byte(k) })
	check("RangeTS", seen)
	seen = map[Key]uint64{}
	tbl.Range(func(k Key, v []byte, _ uint64) bool { seen[k] = uint64(v[0]); return true })
	check("Range", seen)
}

// A map is the oracle for every write mode, with and without version
// retention, on a table small enough that chains run several buckets
// long and tombstones pile up.
func TestBucketAgainstModel(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			s := NewStore()
			if mvcc {
				s.EnableMVCC()
			}
			tbl := s.CreateTable(1, 16)
			model := map[Key][]byte{}
			rng := rand.New(rand.NewSource(21))
			for i := 1; i <= 30_000; i++ {
				k, v, ts := Key(rng.Intn(600)), []byte{byte(i), byte(i >> 8)}, uint64(i)
				old, present := model[k]
				var err, want error
				switch rng.Intn(5) {
				case 0:
					if err = tbl.InsertAt(k, v, ts); present {
						want = ErrExists
					} else {
						model[k] = v
					}
				case 1:
					if err = tbl.PutAt(k, v, ts); present {
						model[k] = v
					} else {
						want = ErrNotFound
					}
				case 2:
					tbl.UpsertAt(k, v, ts)
					model[k] = v
				case 3:
					if err = tbl.DeleteAt(k, ts); present {
						delete(model, k)
					} else {
						want = ErrNotFound
					}
				case 4:
					var got []byte
					if got, _, err = tbl.Bucket(k).Get(k); !present {
						want = ErrNotFound
					} else if !bytes.Equal(got, old) {
						t.Fatalf("op %d: Get(%d) = %v, model has %v", i, k, got, old)
					}
				}
				if !errors.Is(err, want) {
					t.Fatalf("op %d on key %d (present %v): err %v, want %v", i, k, present, err, want)
				}
			}
			if tbl.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", tbl.Len(), len(model))
			}
			tbl.Range(func(k Key, v []byte, _ uint64) bool {
				if !bytes.Equal(v, model[k]) {
					t.Errorf("Range: key %d = %v, model has %v", k, v, model[k])
				}
				return true
			})
			if mvcc {
				return
			}
			// Tombstones were recycled: no chain outgrew its live peak by much.
			for i := 0; i < tbl.NumBuckets(); i++ {
				if n := tbl.BucketAt(i).ChainLength(); n > 600/16/bucketCapacity+4 {
					t.Fatalf("bucket %d: chain of %d buckets for ~%d keys", i, n, 600/16)
				}
			}
		})
	}
}

var (
	sinkValue []byte
	sinkErr   error
)

// chained returns a table of n buckets filled until the average chain
// is length buckets long (the last one half full), and its keys.
func chained(n, length int) (*Table, []Key) {
	tbl := NewStore().CreateTable(1, n)
	keys := make([]Key, n*(bucketCapacity*(length-1)+bucketCapacity/2))
	for i := range keys {
		keys[i] = Key(i)
		tbl.UpsertAt(keys[i], make([]byte, 64), 0)
	}
	return tbl, keys
}

// The layer numbers behind storage.get_ns and storage.put_ns, at the
// chain lengths the ledger's storage.max_bucket_chain row sees: a read
// pays one header line per bucket walked plus the entry lines whose
// fingerprint matches (usually one).
func BenchmarkBucketGet(b *testing.B) {
	for _, length := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chain=%d", length), func(b *testing.B) {
			tbl, keys := chained(1<<14, length)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i*7919%len(keys)]
				sinkValue, _, sinkErr = tbl.Bucket(k).Get(k)
			}
		})
	}
}

// Insert of an absent key walks the whole chain before it places the
// record. Each timed batch of one insert per bucket is deleted again off
// the clock, so the next batch recycles its tombstones and the chains
// keep their length.
func BenchmarkBucketInsert(b *testing.B) {
	for _, length := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chain=%d", length), func(b *testing.B) {
			const n = 1 << 14
			tbl, keys := chained(n, length)
			value := make([]byte, 64)
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				batch := min(n, b.N-done)
				for i := 0; i < batch; i++ {
					k := Key(len(keys) + i)
					sinkErr = tbl.Bucket(k).Insert(k, value)
				}
				b.StopTimer()
				for i := 0; i < batch; i++ {
					k := Key(len(keys) + i)
					sinkErr = tbl.Bucket(k).Delete(k)
				}
				b.StartTimer()
			}
		})
	}
}
