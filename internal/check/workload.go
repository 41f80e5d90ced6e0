package check

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The chaos workload: randomized multi-key transactions engineered for
// traceability (see the package comment). Every write is a
// read-modify-write whose new value embeds a per-attempt nonce and the
// writing op's id, so each committed version of a key is unique and
// names its writer; every update observes the version it overwrites.
// Keys within one transaction are distinct, so intra-transaction
// read-your-own-writes never muddies the external read.

// CheckTable is the workload's table.
const CheckTable storage.TableID = 9

// Value layout: nonce (int64 LE) + writing op id (uint32 LE). Initial
// values use the reserved negative nonce namespace -(key+1), so the
// checker can tell "pre-history value" from "value from an aborted
// attempt" exactly.
const valSize = 12

// EncodeVal builds a workload value.
func EncodeVal(nonce int64, op int) []byte {
	out := make([]byte, valSize)
	binary.LittleEndian.PutUint64(out, uint64(nonce))
	binary.LittleEndian.PutUint32(out[8:], uint32(op))
	return out
}

// DecodeNonce extracts a value's nonce (0 for malformed values).
func DecodeNonce(v []byte) int64 {
	if len(v) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(v))
}

// InitialVal is the value key k is loaded with before the run.
func InitialVal(k storage.Key) []byte { return EncodeVal(-(int64(k) + 1), 0) }

// IsInitialVal reports whether v is key k's pre-history value — the
// checker's Options.IsInitial for chaos histories.
func IsInitialVal(k Key, v []byte) bool {
	return len(v) == valSize && DecodeNonce(v) == -(int64(k.Key)+1)
}

// Procedure names. Each takes its keys first and the attempt nonce as
// the last argument.
const (
	ProcRMW2 = "chk.rmw2" // update k1, update k2
	ProcRMW4 = "chk.rmw4" // update k1..k4
	ProcMix  = "chk.mix"  // read k1, update k2, update k3
	ProcRO   = "chk.ro"   // read k1..k3
	// ProcSRO is the snapshot read: the same three reads as ProcRO but
	// declared ReadOnly, so on a WithMVCC cluster it executes on the
	// lock-free snapshot path instead of the locking protocol. MVCC
	// cells draw it in place of ProcRO (Generator.SnapshotReads).
	ProcSRO = "chk.sro" // snapshot-read k1..k3
)

func keyArg(i int) txn.KeyFunc {
	return func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
		return storage.Key(args[i]), true
	}
}

func stamp(op int, nonceArg int) txn.MutateFunc {
	return func(_ []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
		return EncodeVal(args[nonceArg], op), nil
	}
}

func updateOp(id, keyIdx, nonceArg int) txn.OpSpec {
	return txn.OpSpec{ID: id, Type: txn.OpUpdate, Table: CheckTable, Key: keyArg(keyIdx), Mutate: stamp(id, nonceArg)}
}

func readOp(id, keyIdx int) txn.OpSpec {
	return txn.OpSpec{ID: id, Type: txn.OpRead, Table: CheckTable, Key: keyArg(keyIdx)}
}

// RegisterProcs registers the chaos procedures.
func RegisterProcs(reg *txn.Registry) error {
	procs := []*txn.Procedure{
		{Name: ProcRMW2, Ops: []txn.OpSpec{updateOp(0, 0, 2), updateOp(1, 1, 2)}},
		{Name: ProcRMW4, Ops: []txn.OpSpec{updateOp(0, 0, 4), updateOp(1, 1, 4), updateOp(2, 2, 4), updateOp(3, 3, 4)}},
		{Name: ProcMix, Ops: []txn.OpSpec{readOp(0, 0), updateOp(1, 1, 3), updateOp(2, 2, 3)}},
		{Name: ProcRO, Ops: []txn.OpSpec{readOp(0, 0), readOp(1, 1), readOp(2, 2)}},
		{Name: ProcSRO, ReadOnly: true, Ops: []txn.OpSpec{readOp(0, 0), readOp(1, 1), readOp(2, 2)}},
	}
	for _, p := range procs {
		if err := reg.Register(p); err != nil {
			return fmt.Errorf("check: register %s: %w", p.Name, err)
		}
	}
	return nil
}

// The chaos cell's keyspace and key choice, the same in every matrix
// cell. Keys are range-partitioned: partition p owns
// [p*cellKeys, (p+1)*cellKeys), and key p*cellKeys is p's hot
// (celebrity) record.
const (
	cellPartitions = 3
	cellKeys       = 16 // records per partition
	// hotProb is the probability a transaction touches some partition's
	// hot key (exercising Chiller's two-region path).
	hotProb = 0.6
	// remoteProb is the probability each key lives on a partition drawn
	// at random rather than the transaction's own.
	remoteProb = 0.5
)

// Generator draws randomized chaos requests over the cell's keys.
type Generator struct {
	// SnapshotReads swaps ProcSRO in for ProcRO, so the read-only slice
	// of the mix runs on the MVCC snapshot path. Set on MVCC cells.
	SnapshotReads bool
}

// hotKey returns partition p's hot record.
func hotKey(p int) storage.Key { return storage.Key(p * cellKeys) }

// Next draws one request originating at partition part. The nonce
// argument (last) is left 0 — the harness stamps a fresh nonce per
// attempt.
func (g *Generator) Next(part int, rng *rand.Rand) *txn.Request {
	var proc string
	var nKeys int
	switch r := rng.Float64(); {
	case r < 0.4:
		proc, nKeys = ProcRMW2, 2
	case r < 0.6:
		proc, nKeys = ProcRMW4, 4
	case r < 0.85:
		proc, nKeys = ProcMix, 3
	default:
		proc, nKeys = ProcRO, 3
		if g.SnapshotReads {
			proc = ProcSRO
		}
	}
	used := make(map[int64]bool, nKeys)
	args := make(txn.Args, 0, nKeys+1)
	pick := func(hot bool) int64 {
		for {
			p := part
			if rng.Float64() < remoteProb {
				p = rng.Intn(cellPartitions)
			}
			var k int64
			if hot {
				k = int64(hotKey(p))
			} else {
				k = int64(p*cellKeys + rng.Intn(cellKeys))
			}
			if !used[k] {
				used[k] = true
				return k
			}
			hot = false // hot key already taken: fall back to a cold one
		}
	}
	hotIdx := -1
	if rng.Float64() < hotProb {
		hotIdx = rng.Intn(nKeys)
	}
	for i := 0; i < nKeys; i++ {
		args = append(args, pick(i == hotIdx))
	}
	args = append(args, 0) // nonce slot
	return &txn.Request{Proc: proc, Args: args}
}
