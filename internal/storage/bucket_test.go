package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// The bucket header is one cache line and a record slot a quarter of
// one; a field added to either shows up here, not as a slow lookup or a
// bigger heap.
func TestBucketLayoutPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Bucket", unsafe.Sizeof(Bucket{}), 64},
		{"entry", unsafe.Sizeof(entry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// The collector scans neither slot arrays nor value chunks only as long
// as their element types hold no pointer.
func TestSlotsArePointerFree(t *testing.T) {
	var walk func(reflect.Type) error
	walk = func(typ reflect.Type) error {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return nil
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if err := walk(typ.Field(i).Type); err != nil {
					return fmt.Errorf("%s.%s: %w", typ.Name(), typ.Field(i).Name, err)
				}
			}
			return nil
		}
		return fmt.Errorf("%s is a %s, which may hold a pointer", typ, typ.Kind())
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(entry{}), reflect.TypeOf((&values{}).chunk).Out(0).Elem()} {
		if err := walk(typ); err != nil {
			t.Error(err)
		}
	}
}

// What one record costs the heap: its slot, its share of the bucket
// array and of its bucket's slot array, and its value with its length
// prefix in a chunk. At three records per bucket and 24-byte values
// that is ~68 B; the bound fails the 32-byte slot with a value object
// of its own (~84 B).
func TestRecordFootprint(t *testing.T) {
	const records = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := NewStore().CreateTable(1, records/3)
	value := make([]byte, 24)
	for k := Key(0); k < records; k++ {
		if err := tbl.Bucket(k).Insert(k, value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / records
	t.Logf("%.1f B per record", perRecord)
	if perRecord > 71 {
		t.Fatalf("%.1f B per record, want <= 71", perRecord)
	}
}

// Allocations per write: none, stamped or not — every value is copied
// into a chunk, and a stamp is part of the record. Under MVCC an
// overwrite retains the version it replaced, with its own copy of the
// value, and the first record of a bucket to retain one allocates the
// bucket's side; neither queueing the record for the sweep nor the
// sweep adds anything.
func TestWriteAllocations(t *testing.T) {
	const runs = 100
	value := make([]byte, 24)
	// One record per bucket, so that a row counts what a bucket's first
	// retained version costs once per call.
	var keys []Key
	used := map[int]bool{}
	for k, probe := Key(0), NewStore().CreateTable(1, 1024); len(keys) <= runs; k++ {
		if i := probe.BucketIndex(k); !used[i] {
			used[i] = true
			keys = append(keys, k)
		}
	}
	loaded := func(s *Store) *Table {
		tbl := s.CreateTable(1, 1024)
		for _, k := range keys {
			tbl.UpsertAt(k, value, 0)
		}
		return tbl
	}
	tbl := loaded(NewStore())
	mv := NewStore()
	mv.EnableMVCC()
	mvt := loaded(mv)
	var i int
	next := func() Key { i = (i + 1) % len(keys); return keys[i] }
	ts := uint64(0)
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Put", 0, func() { k := next(); sinkErr = tbl.Bucket(k).Put(k, value) }},
		{"UpsertAt(ts 0)", 0, func() { tbl.UpsertAt(next(), value, 0) }},
		{"UpsertAt(ts>0)", 0, func() { ts++; tbl.UpsertAt(next(), value, ts) }},
		// AllocsPerRun makes runs+1 calls: each is the first of its
		// bucket to retain a version.
		{"first MVCC PutAt", 3, func() { ts++; sinkErr = mvt.PutAt(next(), value, ts) }},
		{"MVCC PutAt", 2, func() { ts++; sinkErr = mvt.PutAt(next(), value, ts) }},
		// The sweep cut every chain of the record's bucket and dropped
		// its side, so the next write allocates it again.
		{"MVCC PutAt, watermark trailing", 3, func() { ts++; sinkErr = mvt.PutAt(next(), value, ts); mv.SetWatermark(ts - 8) }},
	} {
		i = runs
		if got := testing.AllocsPerRun(runs, c.fn); got != c.want || sinkErr != nil {
			t.Errorf("%s: %v allocs per call (err %v), want %v", c.name, got, sinkErr, c.want)
		}
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
	if b.ChainLength() != 2 || b.overflow.n != 1 || b.overflow.slots()[0].key != twins[2] {
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

// Without MVCC a tombstone carries no history. The key's own insert
// finds it and resurrects it in place, its version counting on: a
// reader of version 1 must not validate against a re-inserted
// version 1. Another key's insert takes it as a free slot, re-tags it
// and clears its dead bit, and the key that died there is not found
// through the new tenant's tag or its own; its re-insert, in another
// slot, still starts above the version its tombstone had.
func TestTombstoneSlotIsRetagged(t *testing.T) {
	old, other := Key(1), Key(2)
	for tagOf(other) == tagOf(old) {
		other++
	}
	for _, next := range []Key{old, other} {
		b := NewStore().CreateTable(1, 1).Bucket(0)
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
		if b.n != 1 || b.dead != 0 || b.tags[0] != tagOf(next) {
			t.Fatalf("insert of key %d: slot not taken: %d entries, dead mask %08b, tag %#x (want %#x)", next, b.n, b.dead, b.tags[0], tagOf(next))
		}
		if next == old {
			if _, ver, err := b.Get(old); err != nil || ver != 3 {
				t.Fatalf("Insert, Delete, Insert of one key: version %d (%v), want 3", ver, err)
			}
			continue
		}
		if _, _, err := b.Get(old); !errors.Is(err, ErrNotFound) {
			t.Fatalf("the slot's previous key: %v", err)
		}
		if err := b.Insert(old, []byte("z")); err != nil || b.n != 2 {
			t.Fatalf("re-insert of the deleted key: %v, %d entries", err, b.n)
		}
		// The deleted key's tombstone was version 2, and another key took
		// its slot: its new record must not start over at version 1.
		if _, ver, err := b.Get(old); err != nil || ver <= 2 {
			t.Fatalf("Insert, Delete, recycle, Insert of one key: version %d (%v), want above 2", ver, err)
		}
	}
}

// Under MVCC a tombstone still heads a version chain: another key's
// insert must not take its slot — stamped, or unstamped as a loader's
// or Repartition's is — and the key's own insert finds it and
// resurrects it in place.
func TestMVCCTombstoneIsKeptAndFound(t *testing.T) {
	for _, stamped := range []bool{true, false} {
		s := NewStore()
		s.EnableMVCC()
		tbl := s.CreateTable(1, 1)
		b := tbl.Bucket(0)
		if err := tbl.Write(1, []byte("a1"), 1, WriteInsert); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Write(1, nil, 2, WriteDelete); err != nil {
			t.Fatal(err)
		}
		if err := tbl.PutAt(1, []byte("no"), 3); !errors.Is(err, ErrNotFound) {
			t.Fatalf("update of a deleted key: %v", err)
		}
		var err error
		if stamped {
			err = tbl.Write(2, []byte("b3"), 3, WriteInsert)
		} else {
			err = b.Insert(2, []byte("b3"))
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.n != 2 || b.dead != 1 || b.slots()[0].key != 1 {
			t.Fatalf("stamped %v: key 2 took key 1's tombstone: %d entries, dead mask %08b", stamped, b.n, b.dead)
		}
		if v, err := tbl.ReadAt(1, 1); err != nil || string(v) != "a1" {
			t.Fatalf("stamped %v: ReadAt(1, ts 1) = %q, %v", stamped, v, err)
		}
		if _, err := tbl.ReadAt(1, 3); !errors.Is(err, ErrNotFound) {
			t.Fatalf("ReadAt(1, ts 3) after the delete: %v", err)
		}
		if _, _, err := b.Get(1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of a deleted key: %v", err)
		}

		if err := tbl.Write(1, []byte("a4"), 4, WriteInsert); err != nil {
			t.Fatal(err)
		}
		if b.n != 2 || b.dead != 0 || tbl.ChainDepth(1) != 2 {
			t.Fatalf("not resurrected in place: %d entries, dead mask %08b, chain depth %d", b.n, b.dead, tbl.ChainDepth(1))
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
}

// Every whole-chain walk reads liveness from the mask.
func TestWalksSkipDeadSlots(t *testing.T) {
	tbl := NewStore().CreateTable(1, 1)
	b := tbl.Bucket(0)
	live := map[Key]bool{}
	for k := Key(0); k < 20; k++ {
		if err := tbl.Write(k, []byte{byte(k)}, uint64(k), WriteInsert); err != nil {
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
// long and tombstones pile up, and whose chunks are compacted often. Every write
// goes through Table.Write, stamped as production stamps it: with the
// op's index under MVCC, with 0 on a clockless store. Under MVCC the
// model also keeps each key's versions, and every few hundred ops the
// watermark rises, the model drops what the sweep drops, and ReadAt and
// ChainDepth are checked against it. A reader keeps values it read —
// copied into one buffer it never resets — across the writes that
// follow, almost all of them same-size overwrites in place, and each
// must still hold the bytes it was read with.
func TestBucketAgainstModel(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			s := NewStore()
			if mvcc {
				s.EnableMVCC()
			}
			tbl := s.CreateTable(1, 16)
			model := map[Key][]byte{}
			versions := map[Key][]stamped{} // oldest first
			wrote := func(k Key, ts uint64, v []byte) { versions[k] = append(versions[k], stamped{ts, v}) }
			// Keep what the sweep keeps: everything from the newest
			// version at or below the watermark on, the live one included.
			setWatermark := func(w uint64) {
				s.SetWatermark(w)
				for k, vs := range versions {
					for j := len(vs) - 1; j >= 0; j-- {
						if vs[j].ts <= s.Watermark() {
							versions[k] = vs[j:]
							break
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(21))
			var buf Buf
			type held struct{ got, want []byte }
			var kept []held
			const ops = 30_000
			for i := 1; i <= ops; i++ {
				k, v, ts := Key(rng.Intn(600)), []byte{byte(i), byte(i >> 8)}, uint64(0)
				if mvcc {
					ts = uint64(i)
				}
				old, present := model[k]
				var err, want error
				switch op := rng.Intn(6); op {
				case 0:
					if err = tbl.Write(k, v, ts, WriteInsert); present {
						want = ErrExists
					} else {
						model[k] = v
						wrote(k, ts, v)
					}
				case 1:
					if err = tbl.Write(k, v, ts, WriteUpdate); present {
						model[k] = v
						wrote(k, ts, v)
					} else {
						want = ErrNotFound
					}
				case 2:
					err = tbl.Write(k, v, ts, WriteUpsert)
					model[k] = v
					wrote(k, ts, v)
				case 5:
					if rng.Intn(10) != 0 {
						err = tbl.Write(k, v, ts, WriteUpsert)
						model[k] = v
						wrote(k, ts, v)
						break
					}
					// A value bigger than any chunk, overwritten at once:
					// its dead bytes alone force a compaction.
					big := bytes.Repeat(v, minDead/2+1)
					if err = tbl.Write(k, big, ts, WriteUpsert); err == nil {
						err = tbl.Write(k, v, ts, WriteUpsert)
					}
					model[k] = v
					wrote(k, ts, big)
					wrote(k, ts, v)
				case 3:
					if err = tbl.Write(k, nil, ts, WriteDelete); present {
						delete(model, k)
						wrote(k, ts, nil)
					} else {
						want = ErrNotFound
					}
				case 4:
					var got []byte
					if got, _, err = tbl.Bucket(k).GetInto(k, &buf); !present {
						want = ErrNotFound
					} else if !bytes.Equal(got, old) {
						t.Fatalf("op %d: Get(%d) = %v, model has %v", i, k, got, old)
					} else if len(kept) < 64 {
						kept = append(kept, held{got, old})
					} else {
						kept[rng.Intn(len(kept))] = held{got, old}
					}
				}
				if !errors.Is(err, want) {
					t.Fatalf("op %d on key %d (present %v): err %v, want %v", i, k, present, err, want)
				}
				for _, h := range kept {
					if !bytes.Equal(h.got, h.want) {
						t.Fatalf("op %d: a value read earlier changed under its reader: %v, was %v", i, h.got, h.want)
					}
				}
				if mvcc && i%300 == 0 {
					setWatermark(uint64(max(0, i-rng.Intn(1000))))
					checkSnapshots(t, tbl, versions, uint64(i), rng)
				}
			}
			if tbl.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", tbl.Len(), len(model))
			}
			if n := tbl.vals.compactions; n < 50 {
				t.Fatalf("%d compactions, want one per value bigger than a chunk", n)
			}
			tbl.Range(func(k Key, v []byte, _ uint64) bool {
				if !bytes.Equal(v, model[k]) {
					t.Errorf("Range: key %d = %v, model has %v", k, v, model[k])
				}
				return true
			})
			if mvcc {
				// With the watermark at now no chain is left; a write
				// above it retains the version it replaced until the
				// watermark passes the write.
				setWatermark(ops)
				checkSnapshots(t, tbl, versions, ops, rng)
				for k := range versions {
					if n := tbl.ChainDepth(k); n != 0 {
						t.Fatalf("key %d: chain depth %d with the watermark at the last write, want 0", k, n)
					}
					tbl.UpsertAt(k, nil, ops+1)
					if n := tbl.ChainDepth(k); n != 1 {
						t.Fatalf("key %d: chain depth %d after a write above the watermark, want 1", k, n)
					}
				}
				s.SetWatermark(ops + 1)
				for k := range versions {
					if n := tbl.ChainDepth(k); n != 0 {
						t.Fatalf("key %d: chain depth %d once the watermark passed its write, want 0", k, n)
					}
				}
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

// stamped is one version of a key in TestBucketAgainstModel's model.
type stamped struct {
	ts    uint64
	value []byte // nil: the key was deleted at ts
}

// checkSnapshots compares ReadAt at random snapshots in [watermark, now]
// and every key's ChainDepth with the model's versions of each key.
func checkSnapshots(t *testing.T, tbl *Table, versions map[Key][]stamped, now uint64, rng *rand.Rand) {
	t.Helper()
	w := tbl.mv.watermark.Load()
	for range 200 {
		k, snap := Key(rng.Intn(600)), w+uint64(rng.Int63n(int64(now-w+1)))
		var want []byte
		for _, v := range versions[k] {
			if v.ts <= snap {
				want = v.value
			}
		}
		got, err := tbl.ReadAt(k, snap)
		if want == nil && !errors.Is(err, ErrNotFound) || want != nil && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("ReadAt(%d, %d) at watermark %d = %v, %v; model has %v", k, snap, w, got, err, want)
		}
	}
	for k, vs := range versions {
		if got := tbl.ChainDepth(k); got != len(vs)-1 {
			t.Fatalf("key %d: chain depth %d at watermark %d, model retains %d older versions", k, got, w, len(vs)-1)
		}
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
// fingerprint matches (usually one), and copies the value out — here
// into a reused buffer, as the hot paths do.
func BenchmarkBucketGet(b *testing.B) {
	for _, length := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chain=%d", length), func(b *testing.B) {
			tbl, keys := chained(1<<14, length)
			var buf Buf
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i*7919%len(keys)]
				sinkValue, _, sinkErr = tbl.Bucket(k).GetInto(k, &buf)
				buf.Reset()
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
