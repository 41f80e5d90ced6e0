package storage

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestTableCRUD(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 16)

	b := tbl.Bucket(42)
	if err := b.Insert(42, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ver, err := b.Get(42)
	if err != nil || string(v) != "v1" || ver != 1 {
		t.Fatalf("Get = %q v%d err=%v", v, ver, err)
	}
	if err := b.Put(42, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ver, _ = b.Get(42)
	if string(v) != "v2" || ver != 2 {
		t.Fatalf("after Put: %q v%d", v, ver)
	}
	if err := b.Delete(42); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 4)
	b := tbl.Bucket(7)
	if err := b.Insert(7, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(7, []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestTombstoneReuse(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 1) // single bucket: all keys collide
	b := tbl.Bucket(0)
	if err := b.Insert(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if b.ChainLength() != 1 {
		t.Fatalf("tombstone slot not reused; chain = %d", b.ChainLength())
	}
	// The old key must stay deleted.
	if _, _, err := b.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

func TestOverflowChaining(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 1)
	b := tbl.Bucket(0)
	const n = 50 // >> bucketCapacity
	for i := Key(0); i < n; i++ {
		if err := b.Insert(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if b.ChainLength() < 2 {
		t.Fatal("expected overflow buckets")
	}
	for i := Key(0); i < n; i++ {
		v, _, err := b.Get(i)
		if err != nil || v[0] != byte(i) {
			t.Fatalf("key %d: v=%v err=%v", i, v, err)
		}
	}
}

// Get returns the stored slice without copying; the store's guarantee is
// that the slice is immutable — Put must replace the value slice, never
// mutate it, so a snapshot taken before a write stays intact.
func TestGetSnapshotSurvivesPut(t *testing.T) {
	s := NewStore()
	b := s.CreateTable(1, 4).Bucket(9)
	if err := b.Insert(9, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v, _, _ := b.Get(9)
	if err := b.Put(9, []byte{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("snapshot mutated by Put: %v", v)
	}
	v2, _, _ := b.Get(9)
	if v2[0] != 7 {
		t.Fatalf("Put lost: %v", v2)
	}
	// Put must copy its input: mutating the written slice afterwards must
	// not leak into the store.
	in := []byte{5, 5}
	if err := b.Put(9, in); err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	v3, _, _ := b.Get(9)
	if v3[0] != 5 {
		t.Fatal("Put aliases caller buffer")
	}
}

func TestVersionMonotonic(t *testing.T) {
	s := NewStore()
	b := s.CreateTable(1, 4).Bucket(3)
	if err := b.Insert(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	for i := 0; i < 10; i++ {
		if err := b.Put(3, []byte("b")); err != nil {
			t.Fatal(err)
		}
		_, ver, err := b.Get(3)
		if err != nil {
			t.Fatal(err)
		}
		if ver <= last {
			t.Fatalf("version not monotonic: %d then %d", last, ver)
		}
		last = ver
	}
}

func TestTableRangeAndLen(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 8)
	for i := Key(0); i < 100; i++ {
		if err := tbl.Bucket(i).Insert(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	seen := make(map[Key]bool)
	tbl.Range(func(k Key, v []byte, ver uint64) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d records", len(seen))
	}
}

func TestCreateTableIdempotent(t *testing.T) {
	s := NewStore()
	a := s.CreateTable(5, 8)
	b := s.CreateTable(5, 999)
	if a != b {
		t.Fatal("CreateTable not idempotent")
	}
	if s.Table(5) != a {
		t.Fatal("Table lookup mismatch")
	}
}

// Tables are created while lookups run (a replica's tolerant apply
// creates a missing table mid-handoff): concurrent creators of the same
// and of different ids must each get one table, and a reader that sees
// a table must keep seeing that same table.
func TestCreateTableWhileLookingUp(t *testing.T) {
	s := NewStore()
	const ids = 64
	got := make([][ids]*Table, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < ids; id++ {
				got[w][id] = s.CreateTable(TableID(id), 4)
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var seen [ids]*Table
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := range seen {
				tbl := s.Table(TableID(id))
				if seen[id] != nil && tbl != seen[id] {
					t.Errorf("table %d changed identity under a reader", id)
					return
				}
				if tbl != nil {
					seen[id] = tbl
				}
			}
			_ = s.Tables()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	for id := 0; id < ids; id++ {
		for w := range got {
			if got[w][id] != s.Table(TableID(id)) {
				t.Fatalf("creator %d got a different table %d than the store holds", w, id)
			}
		}
	}
	if n := len(s.Tables()); n != ids {
		t.Fatalf("Tables() lists %d tables, want %d", n, ids)
	}
}

// --- lock tests ---

func TestLockSharedCompatible(t *testing.T) {
	var l LockWord
	if !l.TryLock(LockShared) || !l.TryLock(LockShared) {
		t.Fatal("two shared locks should both succeed")
	}
	if l.SharedCount() != 2 {
		t.Fatalf("SharedCount = %d", l.SharedCount())
	}
	if l.TryLock(LockExclusive) {
		t.Fatal("exclusive granted while shared held")
	}
	l.Unlock(LockShared)
	l.Unlock(LockShared)
	if !l.TryLock(LockExclusive) {
		t.Fatal("exclusive should succeed once shared released")
	}
}

func TestLockExclusiveBlocksAll(t *testing.T) {
	var l LockWord
	if !l.TryLock(LockExclusive) {
		t.Fatal("first X failed")
	}
	if l.TryLock(LockShared) {
		t.Fatal("S granted under X")
	}
	if l.TryLock(LockExclusive) {
		t.Fatal("second X granted")
	}
	l.Unlock(LockExclusive)
	if l.Held() {
		t.Fatal("still held after unlock")
	}
}

func TestLockUpgrade(t *testing.T) {
	var l LockWord
	if !l.TryLock(LockShared) {
		t.Fatal("S failed")
	}
	if !l.Upgrade() {
		t.Fatal("sole-holder upgrade failed")
	}
	if !l.HeldExclusive() {
		t.Fatal("not exclusive after upgrade")
	}
	l.Unlock(LockExclusive)

	// Upgrade must fail with two shared holders.
	l.TryLock(LockShared)
	l.TryLock(LockShared)
	if l.Upgrade() {
		t.Fatal("upgrade succeeded with 2 holders")
	}
	l.Unlock(LockShared)
	l.Unlock(LockShared)
}

func TestUnlockNotHeldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l LockWord
	l.Unlock(LockExclusive)
}

// Invariant under concurrency: an exclusive holder never coexists with any
// other holder. We run goroutines doing lock/unlock cycles and check a
// guarded critical section counter.
func TestLockMutualExclusion(t *testing.T) {
	var l LockWord
	var inX, inS, violations int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g%2 == 0 {
					if l.TryLock(LockExclusive) {
						mu.Lock()
						inX++
						if inX > 1 || inS > 0 {
							violations++
						}
						inX--
						mu.Unlock()
						l.Unlock(LockExclusive)
					}
				} else {
					if l.TryLock(LockShared) {
						mu.Lock()
						inS++
						if inX > 0 {
							violations++
						}
						inS--
						mu.Unlock()
						l.Unlock(LockShared)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	if l.Held() {
		t.Fatal("lock leaked")
	}
}

// Property: after any sequence of insert/delete on a single-bucket table,
// Get reflects the most recent operation per key.
func TestQuickBucketConsistency(t *testing.T) {
	f := func(ops []struct {
		Key Key
		Del bool
		Val byte
	}) bool {
		s := NewStore()
		b := s.CreateTable(1, 1).Bucket(0)
		model := make(map[Key]byte)
		for _, op := range ops {
			k := op.Key % 32
			if op.Del {
				err := b.Delete(k)
				_, inModel := model[k]
				if inModel != (err == nil) {
					return false
				}
				delete(model, k)
			} else {
				if _, ok := model[k]; ok {
					if err := b.Put(k, []byte{op.Val}); err != nil {
						return false
					}
				} else {
					if err := b.Insert(k, []byte{op.Val}); err != nil {
						return false
					}
				}
				model[k] = op.Val
			}
		}
		if b.Len() != len(model) {
			return false
		}
		for k, want := range model {
			v, _, err := b.Get(k)
			if err != nil || v[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDistinctBuckets(t *testing.T) {
	s := NewStore()
	tbl := s.CreateTable(1, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key(g*1000 + i)
				b := tbl.Bucket(k)
				if err := b.Insert(k, []byte{byte(g)}); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", tbl.Len())
	}
}
