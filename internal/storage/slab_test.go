package storage

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Goroutines grow the buckets of one small table at once, each
// inserting keys of its own, so chains grow overflow buckets and slot
// arrays move 2 → 4 → 8 while other buckets take the arrays they
// outgrew off the free lists. Every insert is read back at once with
// each earlier key of its goroutine in the same chain: contents survive
// every growth. Afterwards no two buckets share a slot, no bucket holds
// an array that is on a free list, and the counters add up. Run it
// under -race: an array handed on while its old owner still copies out
// of it is a race on its slots.
func TestSlabAgainstModel(t *testing.T) {
	const goroutines, perG = 8, 1500
	tbl := NewStore().CreateTable(1, 64)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := map[int][]Key{} // this goroutine's keys, by bucket
			for i := range perG {
				k := Key(g + goroutines*i)
				if err := tbl.Bucket(k).Insert(k, valueOf(k, 1)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				bi := tbl.BucketIndex(k)
				mine[bi] = append(mine[bi], k)
				for _, k := range mine[bi] {
					if v, _, err := tbl.Bucket(k).Get(k); err != nil || !bytes.Equal(v, valueOf(k, 1)) {
						t.Errorf("key %d after an insert into its chain: %x, %v", k, v, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := tbl.Len(); n != goroutines*perG {
		t.Fatalf("Len = %d, want %d", n, goroutines*perG)
	}

	// Every array a bucket holds or a free list offers, as an address
	// range: sorted, none may overlap the next.
	type span struct {
		lo, hi uintptr
		owner  string
	}
	var spans []span
	inUse, overflows := 0, 0
	for i := range tbl.NumBuckets() {
		for cur, hop := tbl.BucketAt(i), 0; cur != nil; cur, hop = cur.overflow, hop+1 {
			lo := uintptr(unsafe.Pointer(cur.entries))
			spans = append(spans, span{lo, lo + uintptr(cur.room)*unsafe.Sizeof(entry{}), fmt.Sprintf("bucket %d hop %d", i, hop)})
			inUse += int(cur.room) * slotSize
			if hop > 0 {
				overflows++
			}
		}
	}
	free := 0
	for c, l := range tbl.slab.free {
		room := 2 << c
		for _, p := range l {
			lo := uintptr(unsafe.Pointer(p))
			spans = append(spans, span{lo, lo + uintptr(room)*unsafe.Sizeof(entry{}), fmt.Sprintf("free %d-slot array", room)})
			free += room * slotSize
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s and %s share slots", spans[i-1].owner, spans[i].owner)
		}
	}
	if overflows == 0 || free == 0 {
		t.Fatalf("%d overflow buckets, %d free bytes: the table never chained or never outgrew an array", overflows, free)
	}
	st := tbl.Stats()
	if want := inUse + overflows*bucketSize; st.SlabInUse != want || st.SlabFree != free || st.SlabInUse+st.SlabFree > st.SlabBytes {
		t.Fatalf("Stats %+v; the buckets hold %d bytes, the free lists %d", st, want, free)
	}
	t.Logf("%d slab bytes: %d in use, %d free", st.SlabBytes, st.SlabInUse, st.SlabFree)
}

// A write whose record keeps its size and stamp width rewrites the
// record where it is: the same ref, no dead bytes, and no table-wide
// lock — it completes while the table's value mutex is held elsewhere.
// A write that changes either appends and leaves the old bytes dead.
func TestSameSizeOverwriteInPlace(t *testing.T) {
	tbl := NewStore().CreateTable(1, 4)
	const k = Key(7)
	ref := func() uint32 {
		b := tbl.Bucket(k)
		b.mu.Lock()
		defer b.mu.Unlock()
		at, i, _ := b.seek(k)
		return at.slots()[i].ref
	}
	dead := func() int { st := tbl.Stats(); return st.DeadBytes }
	if err := tbl.Write(k, []byte("aaaa"), 0, WriteInsert); err != nil {
		t.Fatal(err)
	}
	before := ref()

	tbl.vals.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- tbl.Write(k, []byte("bbbb"), 0, WriteUpdate) }()
	select {
	case err := <-done:
		tbl.vals.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a same-size overwrite waits for the table's value mutex")
	}
	if ref() != before || dead() != 0 {
		t.Fatalf("same-size overwrite: ref %#x (was %#x), %d dead bytes", ref(), before, dead())
	}

	for _, c := range []struct {
		value   string
		ts      uint64
		inPlace bool
	}{
		{"cccc", 5, false}, // the first stamp widens the record
		{"dddd", 6, true},
		{"eeeeee", 7, false},
		{"ffffff", 8, true},
		{"gggggg", 0, false}, // a stamp of 0 takes no bytes
	} {
		was, deadBefore := ref(), dead()
		if err := tbl.Write(k, []byte(c.value), c.ts, WriteUpdate); err != nil {
			t.Fatal(err)
		}
		if moved := ref() != was; moved == c.inPlace || moved != (dead() > deadBefore) {
			t.Errorf("write of %q at ts %d: ref %#x → %#x, dead bytes %d → %d; in place %v", c.value, c.ts, was, ref(), deadBefore, dead(), c.inPlace)
		}
		if v, ts := tbl.vals.record(ref()); string(v) != c.value || ts != c.ts {
			t.Errorf("after writing %q at ts %d the record reads %q at ts %d", c.value, c.ts, v, ts)
		}
	}
}
