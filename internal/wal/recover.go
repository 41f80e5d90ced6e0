package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// snapMagic marks a snapshot file header.
const snapMagic uint32 = 0xC4111E12

// CorruptError names a log defect found while scanning a lane file: a
// record whose CRC does not match its bytes. The valid prefix before
// the corruption is kept; everything at and after Offset is discarded.
// A torn final record (short write at EOF) is NOT a CorruptError — that
// is the expected crash artifact and is dropped silently.
type CorruptError struct {
	Lane   int
	Offset int64
	LSN    uint64 // LSN field of the bad record as read (untrusted)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: lane %d: CRC mismatch at offset %d (lsn field %d); log truncated to valid prefix", e.Lane, e.Offset, e.LSN)
}

// scanLaneFile walks a lane file and returns the length of its valid
// prefix, the max LSN seen in that prefix, and a *CorruptError if the
// scan stopped on a CRC mismatch (nil for a clean file or a torn tail).
func scanLaneFile(path string, lane int) (valid int64, maxLSN uint64, corrupt *CorruptError, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil, nil
		}
		return 0, 0, nil, fmt.Errorf("wal: scan lane %d: %w", lane, err)
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, maxLSN, nil, nil
		}
		if len(rest) < recHeaderSize {
			// Torn header at EOF: drop it.
			return off, maxLSN, nil, nil
		}
		body := int64(binary.LittleEndian.Uint32(rest[0:]))
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if body < recBodyPrefix {
			// A length that cannot frame a record is corruption, not a
			// torn tail — name it.
			return off, maxLSN, &CorruptError{Lane: lane, Offset: off}, nil
		}
		if int64(len(rest)) < recHeaderSize+body {
			// Torn record at EOF: drop it.
			return off, maxLSN, nil, nil
		}
		rec := rest[recHeaderSize : recHeaderSize+body]
		lsn := binary.LittleEndian.Uint64(rec[1:])
		if crc32.ChecksumIEEE(rec) != wantCRC {
			return off, maxLSN, &CorruptError{Lane: lane, Offset: off, LSN: lsn}, nil
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
		off += recHeaderSize + body
	}
}

// writeSnapshotFile writes a snapshot atomically: tmp file, fsync,
// rename. Header: magic u32, crc u32 (over payload), cutoff u64,
// payload len u32, then the payload.
func writeSnapshotFile(path string, cutoff uint64, payload []byte, noSync bool) error {
	hdr := make([]byte, 20)
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(hdr[8:], cutoff)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil && !noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// readSnapshotFile loads a snapshot file, validating magic and CRC. A
// missing file returns (0, nil, os.ErrNotExist); a damaged one is
// treated as absent with an error describing why (the log tail is the
// fallback, so recovery degrades rather than fails).
func readSnapshotFile(path string) (cutoff uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 20 || binary.LittleEndian.Uint32(data[0:]) != snapMagic {
		return 0, nil, fmt.Errorf("wal: snapshot %s: bad header", filepath.Base(path))
	}
	wantCRC := binary.LittleEndian.Uint32(data[4:])
	cutoff = binary.LittleEndian.Uint64(data[8:])
	n := binary.LittleEndian.Uint32(data[16:])
	if int(n) != len(data)-20 {
		return 0, nil, fmt.Errorf("wal: snapshot %s: truncated", filepath.Base(path))
	}
	payload = data[20:]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return 0, nil, fmt.Errorf("wal: snapshot %s: CRC mismatch", filepath.Base(path))
	}
	return cutoff, payload, nil
}

// LaneSnapshot is one lane's recovered snapshot payload.
type LaneSnapshot struct {
	Lane    int
	Cutoff  uint64 // records with LSN <= Cutoff are covered by Payload
	Payload []byte
}

// TailRecord is one log record recovered from a lane tail.
type TailRecord struct {
	Lane    int
	LSN     uint64
	Type    uint8
	Payload []byte
}

// Recovered is the durable state read back by Replay: per-lane
// snapshots plus the tail records past each snapshot's cutoff, merged
// across lanes in LSN order. Apply snapshots first, then tail records
// in order; both carry full values, so replay is idempotent.
type Recovered struct {
	Snapshots []LaneSnapshot
	Tail      []TailRecord
	// SnapshotErrs lists snapshot files that existed but failed
	// validation and were skipped (their lanes replay from the full
	// log tail instead, which after a mid-snapshot crash still holds
	// every record).
	SnapshotErrs []error
}

// Empty reports whether recovery found no durable state at all.
func (r *Recovered) Empty() bool {
	return len(r.Snapshots) == 0 && len(r.Tail) == 0
}

// Replay flushes outstanding appends and reads the durable state back:
// each lane's snapshot (if any) plus the log records past its cutoff,
// with tails merged across lanes by LSN. The log remains usable for
// appends afterwards — the crash harness replays through the same open
// Log it keeps across a simulated kill.
func (l *Log) Replay() (*Recovered, error) {
	// Drain userspace buffers so the files hold everything appended.
	l.sync()
	rec := &Recovered{}
	for i := range l.lanes {
		var cutoff uint64
		cut, payload, err := readSnapshotFile(l.snapPath(i))
		switch {
		case err == nil:
			cutoff = cut
			rec.Snapshots = append(rec.Snapshots, LaneSnapshot{Lane: i, Cutoff: cut, Payload: payload})
		case errors.Is(err, os.ErrNotExist):
			// No snapshot: replay the whole lane file.
		default:
			rec.SnapshotErrs = append(rec.SnapshotErrs, err)
		}
		tail, err := readLaneTail(l.lanePath(i), i, cutoff)
		if err != nil {
			return nil, err
		}
		rec.Tail = append(rec.Tail, tail...)
	}
	sort.Slice(rec.Tail, func(a, b int) bool { return rec.Tail[a].LSN < rec.Tail[b].LSN })
	return rec, nil
}

// Recover is the one-call restart path: open the log at dir, read the
// durable state back, and hand both to the caller (apply Recovered into
// the store, then keep the Log for new appends). Corrupt tails are
// tolerated exactly as in Open.
func Recover(dir string, lanes int, policy Policy) (*Log, *Recovered, error) {
	l, err := Open(dir, lanes, policy)
	if err != nil {
		return nil, nil, err
	}
	rec, err := l.Replay()
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, rec, nil
}

// readLaneTail reads the valid records of a lane file with LSN beyond
// cutoff. Torn tails and CRC mismatches stop the scan (the prefix is
// returned), mirroring Open's tolerance.
func readLaneTail(path string, lane int, cutoff uint64) ([]TailRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: replay lane %d: %w", lane, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: replay lane %d: %w", lane, err)
	}
	var out []TailRecord
	off := 0
	for {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return out, nil
		}
		body := int(binary.LittleEndian.Uint32(rest[0:]))
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if body < recBodyPrefix || len(rest) < recHeaderSize+body {
			return out, nil
		}
		recBytes := rest[recHeaderSize : recHeaderSize+body]
		if crc32.ChecksumIEEE(recBytes) != wantCRC {
			return out, nil
		}
		typ := recBytes[0]
		lsn := binary.LittleEndian.Uint64(recBytes[1:])
		if lsn > cutoff {
			payload := make([]byte, body-recBodyPrefix)
			copy(payload, recBytes[recBodyPrefix:])
			out = append(out, TailRecord{Lane: lane, LSN: lsn, Type: typ, Payload: payload})
		}
		off += recHeaderSize + body
	}
}
