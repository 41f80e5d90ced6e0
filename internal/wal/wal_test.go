package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testPolicy() Policy {
	return Policy{FlushInterval: 100 * time.Microsecond, NoSync: true}
}

// TestRoundTrip appends records across lanes, reopens the directory,
// and checks Replay returns every record with payloads intact and the
// cross-lane tail in LSN order.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 3, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	var last Ticket
	for i := 0; i < 50; i++ {
		payload := []byte(fmt.Sprintf("record-%d", i))
		tk := l.Append(i%3, RecCommit, payload)
		want[tk.lsn] = payload
		last = tk
	}
	if err := last.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec, err := Recover(dir, 3, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.Corruption) != 0 {
		t.Fatalf("clean log reported corruption: %v", l2.Corruption)
	}
	if len(rec.Tail) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec.Tail), len(want))
	}
	var prev uint64
	for _, r := range rec.Tail {
		if r.LSN <= prev {
			t.Fatalf("tail not in LSN order: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		if !bytes.Equal(r.Payload, want[r.LSN]) {
			t.Fatalf("lsn %d: payload %q, want %q", r.LSN, r.Payload, want[r.LSN])
		}
		if r.Type != RecCommit {
			t.Fatalf("lsn %d: type %d", r.LSN, r.Type)
		}
	}
	// New appends must continue past the recovered LSNs.
	tk := l2.Append(0, RecCommit, []byte("post-recovery"))
	if tk.lsn != prev+1 {
		t.Fatalf("post-recovery lsn %d, want %d", tk.lsn, prev+1)
	}
}

// TestTornFinalRecordDropped simulates the classic crash artifact — a
// partial record at EOF — and checks Open drops it silently (no
// CorruptError) while keeping the full prefix.
func TestTornFinalRecordDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(0, RecCommit, []byte(fmt.Sprintf("keep-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "lane-000.wal")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a whole record, then tear it at several lengths.
	torn := appendRecord(nil, RecCommit, 99, []byte("torn-away"))
	for _, cut := range []int{1, recHeaderSize - 1, recHeaderSize + 3, len(torn) - 1} {
		if err := os.WriteFile(path, append(append([]byte{}, full...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Recover(dir, 1, testPolicy())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(l2.Corruption) != 0 {
			t.Fatalf("cut %d: torn tail reported as corruption: %v", cut, l2.Corruption)
		}
		if len(rec.Tail) != 10 {
			t.Fatalf("cut %d: replayed %d records, want 10", cut, len(rec.Tail))
		}
		for i, r := range rec.Tail {
			if wantP := fmt.Sprintf("keep-%d", i); string(r.Payload) != wantP {
				t.Fatalf("cut %d: record %d payload %q, want %q", cut, i, r.Payload, wantP)
			}
		}
		l2.Close()
	}
}

// TestCRCMismatchNamed flips a byte inside a middle record and checks
// Open names the damage as a *CorruptError, keeps the valid prefix,
// and truncates so appends resume at a record boundary.
func TestCRCMismatchNamed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(0, RecCommit, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "lane-000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHeaderSize + recBodyPrefix + len("rec-0")
	// Corrupt record index 6's payload.
	data[6*recLen+recHeaderSize+recBodyPrefix] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Recover(dir, 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.Corruption) != 1 {
		t.Fatalf("corruption entries: %d, want 1", len(l2.Corruption))
	}
	var ce *CorruptError
	if !errors.As(l2.Corruption[0], &ce) {
		t.Fatalf("corruption error %T not a *CorruptError", l2.Corruption[0])
	}
	if ce.Lane != 0 || ce.Offset != int64(6*recLen) {
		t.Fatalf("CorruptError = %+v, want lane 0 offset %d", ce, 6*recLen)
	}
	if len(rec.Tail) != 6 {
		t.Fatalf("replayed %d records past corruption, want 6", len(rec.Tail))
	}
	// The file must have been truncated to the valid prefix so new
	// appends land on a record boundary.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(6*recLen) {
		t.Fatalf("file size %d after corrupt open, want %d", fi.Size(), 6*recLen)
	}
}

// TestBadLengthNamed checks a nonsense length field (smaller than the
// record prefix) is treated as corruption, not a torn tail.
func TestBadLengthNamed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	l.Append(0, RecCommit, []byte("good"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lane-000.wal")
	data, _ := os.ReadFile(path)
	bad := make([]byte, recHeaderSize+4)
	binary.LittleEndian.PutUint32(bad[0:], 2) // < recBodyPrefix
	if err := os.WriteFile(path, append(data, bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var ce *CorruptError
	if len(l2.Corruption) != 1 || !errors.As(l2.Corruption[0], &ce) {
		t.Fatalf("bad length not named as corruption: %v", l2.Corruption)
	}
}

// TestSnapshotTruncatesAndReplays snapshots a lane mid-stream and
// checks replay returns the snapshot plus only the records past its
// cutoff, and that the lane file shrank.
func TestSnapshotTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 2, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		l.Append(i%2, RecCommit, []byte(fmt.Sprintf("pre-%d", i)))
	}
	snapPayload := []byte("lane0-state-at-cutoff")
	if err := l.Snapshot(0, func() []byte { return snapPayload }); err != nil {
		t.Fatal(err)
	}
	cutoff := l.LastLSN()
	tkA := l.Append(0, RecCommit, []byte("post-a"))
	l.Append(1, RecCommit, []byte("post-b"))

	rec, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshots) != 1 || !bytes.Equal(rec.Snapshots[0].Payload, snapPayload) {
		t.Fatalf("snapshots = %+v", rec.Snapshots)
	}
	if rec.Snapshots[0].Cutoff != cutoff {
		t.Fatalf("cutoff %d, want %d", rec.Snapshots[0].Cutoff, cutoff)
	}
	// Lane 0's tail: only post-a. Lane 1 has no snapshot, so its whole
	// log (10 pre records + post-b) replays.
	var lane0 []TailRecord
	for _, r := range rec.Tail {
		if r.Lane == 0 {
			lane0 = append(lane0, r)
		}
	}
	if len(lane0) != 1 || lane0[0].LSN != tkA.lsn || string(lane0[0].Payload) != "post-a" {
		t.Fatalf("lane 0 tail = %+v", lane0)
	}
	if got := len(rec.Tail) - len(lane0); got != 11 {
		t.Fatalf("lane 1 tail %d records, want 11", got)
	}
}

// TestSnapshotPressure checks NeedsSnapshot arms at the byte threshold
// and clears after a snapshot.
func TestSnapshotPressure(t *testing.T) {
	dir := t.TempDir()
	p := testPolicy()
	p.SnapshotBytes = 128
	l, err := Open(dir, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NeedsSnapshot(0) {
		t.Fatal("fresh log wants a snapshot")
	}
	for i := 0; i < 8; i++ {
		l.Append(0, RecCommit, make([]byte, 32))
	}
	if !l.NeedsSnapshot(0) {
		t.Fatal("log past threshold does not want a snapshot")
	}
	if !l.TrySnapshotLock(0) {
		t.Fatal("snapshot slot unavailable")
	}
	if l.TrySnapshotLock(0) {
		t.Fatal("snapshot slot double-claimed")
	}
	if err := l.Snapshot(0, func() []byte { return []byte("s") }); err != nil {
		t.Fatal(err)
	}
	l.SnapshotUnlock(0)
	if l.NeedsSnapshot(0) {
		t.Fatal("snapshot did not clear pressure")
	}
}

// TestGroupCommitBatching drives concurrent appenders across lanes and
// checks (a) every ticket resolves, (b) the flusher batched: fsync
// batches are strictly fewer than appends once concurrency is real.
func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	p := Policy{FlushInterval: 500 * time.Microsecond, NoSync: true}
	l, err := Open(dir, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 8
		perWorker = 200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tk := l.Append(w%4, RecCommit, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err := tk.Wait(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("ticket wait: %v", err)
	}
	appends := l.stats.Appends.Load()
	flushes := l.stats.Flushes.Load()
	if appends != workers*perWorker {
		t.Fatalf("appends %d, want %d", appends, workers*perWorker)
	}
	if flushes == 0 || flushes >= appends {
		t.Fatalf("flushes %d vs appends %d: no group commit happening", flushes, appends)
	}
	t.Logf("group commit factor: %.1f appends/fsync", float64(appends)/float64(flushes))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acknowledged must be on disk.
	l2, rec, err := Recover(dir, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Tail) != workers*perWorker {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), workers*perWorker)
	}
}

// TestFlushByteThreshold checks an oversized burst triggers an early
// flush without waiting for the interval timer.
func TestFlushByteThreshold(t *testing.T) {
	dir := t.TempDir()
	p := Policy{FlushInterval: time.Hour, FlushBytes: 1 << 10, NoSync: true}
	l, err := Open(dir, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tk := l.Append(0, RecCommit, make([]byte, 2<<10))
	done := make(chan error, 1)
	go func() { done <- tk.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("byte-threshold flush never fired (ticket stuck behind 1h timer)")
	}
}

// TestSoloAppendNeedsNoTimer pins the idle floor of the default policy:
// a lone committer's wait is one write, not a flush window. 2 000
// sequential Append+Wait took ~2.2 s behind the 200 µs timer.
func TestSoloAppendNeedsNoTimer(t *testing.T) {
	l, err := Open(t.TempDir(), 2, Policy{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2000
	payload := make([]byte, 256)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := l.Append(i%2, RecCommit, payload).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("%d solo appends took %v: something is sleeping on the commit path", n, took)
	}
	if got := l.stats.Flushes.Load(); got != n {
		t.Fatalf("flushes %d, want one per solo append (%d)", got, n)
	}
}

// TestAckedRecordIsOnFile is the durability contract: once Wait
// returns, a fresh read of the lane file — the log still open, other
// appenders still running — finds that LSN with a valid CRC. Under
// either policy, and through Notify as well as Wait.
func TestAckedRecordIsOnFile(t *testing.T) {
	for name, p := range map[string]Policy{"nosync": {NoSync: true}, "fsync": {}} {
		t.Run(name, func(t *testing.T) {
			const lanes, workers, perWorker = 2, 4, 40
			l, err := Open(t.TempDir(), lanes, p)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			onFile := func(lane int, lsn uint64) bool {
				tail, err := readLaneTail(l.lanePath(lane), lane, 0) // stops at a bad CRC
				if err != nil {
					t.Error(err)
				}
				for _, r := range tail {
					if r.LSN == lsn {
						return true
					}
				}
				return false
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lane := w % lanes
					for i := 0; i < perWorker; i++ {
						tk := l.Append(lane, RecCommit, []byte(fmt.Sprintf("w%d-%d", w, i)))
						if i%2 == 0 {
							if err := tk.Wait(); err != nil {
								t.Error(err)
								return
							}
						} else {
							acked := make(chan error, 1)
							tk.Notify(func(err error) { acked <- err })
							if err := <-acked; err != nil {
								t.Error(err)
								return
							}
						}
						if !onFile(lane, tk.LSN()) {
							t.Errorf("lsn %d acknowledged but not on lane %d's file", tk.LSN(), lane)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestNoLostWakeup pins the self-clocked flusher's one hazard: a record
// appended after its lane was drained but before the flusher parks must
// start the next flush. Eight appenders in append-then-wait lockstep
// keep the flusher on the edge of idle; a lost wake-up leaves a Wait
// parked for good, which the watchdog turns into a failure.
func TestNoLostWakeup(t *testing.T) {
	run := 2 * time.Second
	if testing.Short() {
		run = 500 * time.Millisecond
	}
	const appenders, limit = 8, 100 * time.Millisecond
	l, err := Open(t.TempDir(), 4, Policy{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var waitingSince [appenders]atomic.Int64 // unix nanos; 0 = not in Wait
	var stop atomic.Bool
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tk := l.Append(a%4, RecCommit, []byte("lockstep"))
				waitingSince[a].Store(time.Now().UnixNano())
				err := tk.Wait()
				waitingSince[a].Store(0)
				if errors.Is(err, ErrClosed) && stop.Load() {
					return // appended across the Close below
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(run); time.Now().Before(deadline) && !t.Failed(); {
		time.Sleep(5 * time.Millisecond)
		for a := range waitingSince {
			if since := waitingSince[a].Load(); since != 0 && time.Since(time.Unix(0, since)) > limit {
				t.Errorf("appender %d has waited over %v for its flush (lost wake-up?)", a, limit)
			}
		}
	}
	stop.Store(true)
	// Close drains, which also frees an appender a lost wake-up stranded.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Logf("%d appends in %d flushes", l.stats.Appends.Load(), l.stats.Flushes.Load())
}

// TestFlushErrorIsSticky checks a failed write fails its own batch and
// every later one — Wait and Notify alike — instead of acknowledging
// records the disk never took.
func TestFlushErrorIsSticky(t *testing.T) {
	l, err := Open(t.TempDir(), 2, Policy{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(0, RecCommit, []byte("fine")).Wait(); err != nil {
		t.Fatal(err)
	}
	l.lanes[0].f.Close() // the disk goes away under lane 0
	if err := l.Append(0, RecCommit, []byte("lost")).Wait(); err == nil {
		t.Fatal("a record that failed to write was acknowledged")
	}
	// Lane 1's file is healthy, but no append is durable after a failure.
	tk := l.Append(1, RecCommit, []byte("after"))
	if err := tk.Wait(); err == nil {
		t.Fatal("flush error was not sticky")
	}
	notified := make(chan error, 1)
	tk.Notify(func(err error) { notified <- err })
	if err := <-notified; err == nil {
		t.Fatal("Notify on a landed, failed batch reported success")
	}
}

// TestTicketAfterClose checks Close lands every earlier ticket and that
// a ticket taken afterwards fails instead of parking forever.
func TestTicketAfterClose(t *testing.T) {
	l, err := Open(t.TempDir(), 1, Policy{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Append(0, RecCommit, []byte("before"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := before.Wait(); err != nil {
		t.Fatalf("ticket taken before Close: %v", err)
	}
	if err := l.Append(0, RecCommit, []byte("after")).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ticket taken after Close: %v, want ErrClosed", err)
	}
}

// TestCloseIdempotent checks double Close is safe.
func TestCloseIdempotent(t *testing.T) {
	l, err := Open(t.TempDir(), 1, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendRecord frames one record onto buf, as AppendFunc does in a lane
// buffer.
func appendRecord(buf []byte, typ uint8, lsn uint64, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, make([]byte, recHeaderSize+recBodyPrefix)...), payload...)
	sealRecord(buf[start:], typ, lsn)
	return buf
}
