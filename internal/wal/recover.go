package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// snapMagic marks a snapshot file header.
const snapMagic uint32 = 0xC4111E12

// CorruptError names a log defect found while scanning the log file: a
// record whose CRC does not match its bytes, or a length that cannot
// frame a record. The valid prefix before the corruption is kept;
// everything at and after Offset is discarded. A torn final record
// (short write at EOF) is NOT a CorruptError — that is the expected
// crash artifact and is dropped silently.
type CorruptError struct {
	Offset int64
	LSN    uint64 // LSN field of the bad record as read (untrusted)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: CRC mismatch at offset %d (lsn field %d); log truncated to valid prefix", e.Offset, e.LSN)
}

// walk is the one reader of the record framing: it hands each valid
// record of a log file to fn, in file order, and returns the length of
// the valid prefix. payload aliases a buffer read for this walk alone. A
// torn final record — a short write at EOF, the normal crash artifact —
// ends the walk silently; a length that cannot frame a record or a CRC
// mismatch ends it with a *CorruptError naming the spot. A missing file
// is empty.
func walk(path string, fn func(typ uint8, lsn uint64, payload []byte)) (valid int64, corrupt *CorruptError, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("wal: read log: %w", err)
	}
	for {
		rest := data[valid:]
		if len(rest) < recHeaderSize {
			return valid, nil, nil // clean end, or a torn header
		}
		body := int64(binary.LittleEndian.Uint32(rest[0:]))
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if body < recBodyPrefix {
			// A length that cannot frame a record is corruption, not a
			// torn tail — name it.
			return valid, &CorruptError{Offset: valid}, nil
		}
		if int64(len(rest)) < recHeaderSize+body {
			return valid, nil, nil // torn record
		}
		rec := rest[recHeaderSize : recHeaderSize+body]
		lsn := binary.LittleEndian.Uint64(rec[1:])
		if crc32.ChecksumIEEE(rec) != wantCRC {
			return valid, &CorruptError{Offset: valid, LSN: lsn}, nil
		}
		fn(rec[0], lsn, rec[recBodyPrefix:])
		valid += recHeaderSize + body
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

// TailRecord is one log record recovered past the snapshot's cutoff.
type TailRecord struct {
	LSN     uint64
	Type    uint8
	Payload []byte
}

// Recovered is the durable state read back by Replay: the snapshot, if
// any, plus the log records past its cutoff in LSN order. Apply the
// snapshot first, then the tail in order; both carry full values, so
// replay is idempotent.
type Recovered struct {
	// Snapshot is the snapshot's payload, nil when there is none.
	Snapshot []byte
	Tail     []TailRecord
	// SnapshotErrs holds the snapshot file's validation error when it
	// existed but was skipped — at most one entry (a slice because
	// benchmark/ compiles against it). The log then replays in full,
	// which after a mid-snapshot crash still holds every record.
	SnapshotErrs []error
}

// Empty reports whether recovery found no durable state at all.
func (r *Recovered) Empty() bool {
	return r.Snapshot == nil && len(r.Tail) == 0
}

// Replay flushes outstanding appends and reads the durable state back:
// the snapshot (if any) plus the log records past its cutoff, in file
// order, which is LSN order. The log remains usable for appends
// afterwards.
func (l *Log) Replay() (*Recovered, error) {
	// Drain the buffer so the file holds everything appended.
	l.sync()
	rec := &Recovered{}
	var cutoff uint64
	cut, payload, err := readSnapshotFile(l.snapPath())
	switch {
	case err == nil:
		cutoff, rec.Snapshot = cut, payload
	case errors.Is(err, os.ErrNotExist):
		// No snapshot: replay the whole log.
	default:
		rec.SnapshotErrs = append(rec.SnapshotErrs, err)
	}
	// Torn tails and corruption end the walk without an error (the
	// prefix is returned): Open is where corruption is reported and cut
	// off.
	_, _, err = walk(l.logPath(), func(typ uint8, lsn uint64, payload []byte) {
		if lsn > cutoff {
			rec.Tail = append(rec.Tail, TailRecord{LSN: lsn, Type: typ, Payload: payload})
		}
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Recover is the one-call restart path: open the log at dir, read the
// durable state back, and hand both to the caller (apply Recovered into
// the store, then keep the Log for new appends). Corrupt tails are
// tolerated exactly as in Open.
func Recover(dir string, policy Policy) (*Log, *Recovered, error) {
	l, err := Open(dir, 0, policy)
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
