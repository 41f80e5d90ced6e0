package server

import (
	"errors"
	"runtime"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// A count read off the wire sizes an allocation, so every decoder must
// check it against the bytes that are actually there: a forged count in
// a message a few bytes long has to fail with wire.ErrShort before
// anything is allocated for it, not after make() has asked for
// gigabytes.
func TestForgedCountsRejected(t *testing.T) {
	const forged = 0xFFFFFFF0
	count := func(prefix ...uint64) []byte { // 64-bit header fields, then the forged count, then a little payload
		var w wire.Writer
		for _, v := range prefix {
			w.Uint64(v)
		}
		w.Uint32(forged)
		w.Uint64s([]uint64{1, 2, 3})
		return w.Bytes()
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"server.DecodeWrites", func() error { _, _, _, err := DecodeWrites(count(7, 9)); return err }},
		{"server.DecodeInnerRepl", func() error { _, _, _, _, err := DecodeInnerRepl(count(7, 9)); return err }},
		{"server.DecodeLockRequest", func() error { _, _, err := DecodeLockRequest(count(7)); return err }},
		{"server.DecodeLockResponse", func() error {
			var w wire.Writer
			w.Bool(true)
			w.Uint8(0)
			w.Uint32(forged)
			_, err := DecodeLockResponse(w.Bytes())
			return err
		}},
		{"wire.DecodeFrames", func() error { _, err := wire.DecodeFrames(count()); return err }},
		{"wire.DecodeFrameResults", func() error { _, err := wire.DecodeFrameResults(count()); return err }},
		{"txn.DecodeReadSet", func() error {
			r := wire.NewReader(count())
			if rs := txn.DecodeReadSet(r, nil); rs != nil {
				t.Errorf("txn.DecodeReadSet returned a set of %d for a forged count", len(rs))
			}
			return r.Err()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, wire.ErrShort) {
				t.Fatalf("forged count %#x: got error %v, want wire.ErrShort", forged, err)
			}
			// The forged count would size 64 GB or more; the error path
			// (a formatted error) fits in a few kilobytes.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("decoding a forged count allocated %d bytes", got)
			}
		})
	}
}

// Write-set codecs allocate what they return and nothing else. These
// are the machine-independent halves of the per-commit allocation
// budget (docs/ARCHITECTURE.md): a regression fails here, not in the
// next benchmark run.
func TestWriteSetAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	writes := make([]WriteOp, 13)
	for i := range writes {
		writes[i] = WriteOp{Table: 1, Key: storage.Key(i * 31), Type: txn.OpUpdate, Value: make([]byte, 40+i)}
	}
	encoded := EncodeInnerRepl(7, 9, 3, writes)
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"EncodeInnerRepl", 1, func() { encoded = EncodeInnerRepl(7, 9, 3, writes) }},
		{"EncodeWrites", 1, func() { encoded = EncodeWrites(7, 9, writes) }},
		{"DecodeWrites", 1, func() { _, _, writes, _ = DecodeWrites(encoded) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocations per call, want at most %v", tc.name, got, tc.max)
		}
	}
}
