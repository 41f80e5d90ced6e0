package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// BankTable is the account table id used by the bank workload.
const BankTable storage.TableID = 1

// Bank is a minimal transfer workload used by integration tests, the
// quickstart example, and micro-ablations: fixed-size accounts striped
// across partitions by range, a Transfer procedure moving money between
// two accounts, and an optional skew knob that concentrates traffic on
// each partition's "celebrity" account (its first key).
type Bank struct {
	// AccountsPerPartition is the number of accounts each partition owns.
	AccountsPerPartition int
	// Partitions mirrors the cluster size.
	Partitions int
	// RemoteProb is the probability the destination account lives on a
	// different partition.
	RemoteProb float64
	// HotProb is the probability the source account is the partition's
	// celebrity account.
	HotProb float64
	// GlobalCelebrity concentrates hot traffic on partition 0's
	// celebrity account cluster-wide instead of each partition's own —
	// the single-hot-record worst case used by the latency ablation.
	GlobalCelebrity bool
	// ReadOnlyProb is the probability a transaction is a three-account
	// audit instead of a transfer — the knob behind the read-heavy MVCC
	// sweep (0 keeps the workload pure transfers).
	ReadOnlyProb float64
	// SnapshotReads emits the audits as the ReadOnly-declared variant
	// (BankSnapAuditProc), which a WithMVCC/ClusterConfig.MVCC cluster
	// executes on the lock-free snapshot path. Off, audits take locks
	// like any other transaction.
	SnapshotReads bool
	// Amount transferred per transaction (fixed, so conservation checks
	// are trivial).
	Amount int64
}

// Name implements Workload.
func (b *Bank) Name() string { return "bank" }

// EncodeBalance serializes an account balance.
func EncodeBalance(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

// DecodeBalance parses an account balance.
func DecodeBalance(p []byte) int64 {
	if len(p) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// BankTransferProc is the registered name of the transfer procedure.
const BankTransferProc = "bank.transfer"

// BankAuditProc is the registered name of the read-only audit procedure.
const BankAuditProc = "bank.audit"

// BankSnapAuditProc is the audit with the ReadOnly declaration: same
// three reads, but an MVCC cluster runs it on the snapshot path (no
// locks, no lane scheduling, no aborts). Registered alongside
// BankAuditProc so one deployment can A/B the two.
const BankSnapAuditProc = "bank.saudit"

// transfer args: [0]=src key, [1]=dst key, [2]=amount.
func bankTransferProcedure(allowOverdraft bool) *txn.Procedure {
	srcKey := func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
		return storage.Key(args[0]), true
	}
	dstKey := func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
		return storage.Key(args[1]), true
	}
	debit := func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
		bal := DecodeBalance(old)
		if !allowOverdraft && bal < args[2] {
			return nil, fmt.Errorf("insufficient funds: %d < %d", bal, args[2])
		}
		return EncodeBalance(bal - args[2]), nil
	}
	credit := func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
		return EncodeBalance(DecodeBalance(old) + args[2]), nil
	}
	return &txn.Procedure{
		Name: BankTransferProc,
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: BankTable, Key: srcKey, Mutate: debit},
			{ID: 1, Type: txn.OpUpdate, Table: BankTable, Key: dstKey, Mutate: credit},
		},
	}
}

// audit args: [0..2] = three account keys; result = their balances.
func bankAuditProcedure(name string, readOnly bool) *txn.Procedure {
	keyAt := func(i int) txn.KeyFunc {
		return func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
			return storage.Key(args[i]), true
		}
	}
	return &txn.Procedure{
		Name:     name,
		ReadOnly: readOnly,
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: BankTable, Key: keyAt(0)},
			{ID: 1, Type: txn.OpRead, Table: BankTable, Key: keyAt(1)},
			{ID: 2, Type: txn.OpRead, Table: BankTable, Key: keyAt(2)},
		},
	}
}

// InitialBalance is every account's starting balance.
const InitialBalance int64 = 10_000

// SetupBank registers the bank procedures, creates the account table, and
// loads AccountsPerPartition accounts per partition, one partition's key
// range per cluster.LoadSlices slice. Call after any partitioning layout
// is installed.
func SetupBank(c *Cluster, b *Bank, allowOverdraft bool) error {
	b.Partitions = c.Cfg.Partitions
	if b.Amount == 0 {
		b.Amount = 10
	}
	if err := c.Registry.Register(bankTransferProcedure(allowOverdraft)); err != nil {
		return err
	}
	if err := c.Registry.Register(bankAuditProcedure(BankAuditProc, false)); err != nil {
		return err
	}
	if err := c.Registry.Register(bankAuditProcedure(BankSnapAuditProc, true)); err != nil {
		return err
	}
	c.CreateTable(BankTable, 4096)
	app := b.AccountsPerPartition
	return cluster.LoadSlices(c, b.Partitions, func(p int, load cluster.LoadFunc) error {
		for k := p * app; k < (p+1)*app; k++ {
			if err := load(BankTable, storage.Key(k), EncodeBalance(InitialBalance)); err != nil {
				return err
			}
		}
		return nil
	})
}

// CelebrityKey returns partition p's hot account key.
func (b *Bank) CelebrityKey(p int) storage.Key {
	return storage.Key(p * b.AccountsPerPartition)
}

// Next implements Workload: with ReadOnlyProb a three-account audit
// (snapshot variant when SnapshotReads), otherwise a transfer from a
// local account (possibly the celebrity) to a random other account,
// remote with RemoteProb.
func (b *Bank) Next(part int, rng *rand.Rand) *txn.Request {
	if b.ReadOnlyProb > 0 && rng.Float64() < b.ReadOnlyProb {
		return b.nextAudit(part, rng)
	}
	app := b.AccountsPerPartition
	var src int
	if b.HotProb > 0 && rng.Float64() < b.HotProb {
		if b.GlobalCelebrity {
			src = 0
		} else {
			src = part * app
		}
	} else {
		src = part*app + rng.Intn(app)
	}
	dstPart := part
	if b.RemoteProb > 0 && b.Partitions > 1 && rng.Float64() < b.RemoteProb {
		dstPart = (part + 1 + rng.Intn(b.Partitions-1)) % b.Partitions
	}
	dst := dstPart*app + rng.Intn(app)
	if dst == src {
		dst = dstPart*app + (dst-dstPart*app+1)%app
		if dst == src { // single-account partition edge case
			dst = (src + 1) % (app * b.Partitions)
		}
	}
	return &txn.Request{
		Proc: BankTransferProc,
		Args: txn.Args{int64(src), int64(dst), b.Amount},
	}
}

// nextAudit draws a three-account audit: the partition's celebrity with
// HotProb (audits race the transfer traffic on the same hot keys), the
// rest uniform, each remote with RemoteProb, all distinct.
func (b *Bank) nextAudit(part int, rng *rand.Rand) *txn.Request {
	app := b.AccountsPerPartition
	total := app * b.Partitions
	args := make(txn.Args, 0, 3)
	used := make(map[int]bool, 3)
	pick := func(hot bool) int {
		for {
			p := part
			if b.RemoteProb > 0 && b.Partitions > 1 && rng.Float64() < b.RemoteProb {
				p = rng.Intn(b.Partitions)
			}
			var k int
			if hot {
				k = p * app
				if b.GlobalCelebrity {
					k = 0
				}
			} else {
				k = p*app + rng.Intn(app)
			}
			if !used[k] {
				used[k] = true
				return k
			}
			hot = false // celebrity taken: fall back to a cold account
			if len(used) >= total {
				return (k + 1) % total
			}
		}
	}
	hotIdx := -1
	if b.HotProb > 0 && rng.Float64() < b.HotProb {
		hotIdx = rng.Intn(3)
	}
	for i := 0; i < 3; i++ {
		args = append(args, int64(pick(i == hotIdx)))
	}
	proc := BankAuditProc
	if b.SnapshotReads {
		proc = BankSnapAuditProc
	}
	return &txn.Request{Proc: proc, Args: args}
}

// TotalBalance sums every account's balance across primary stores — the
// conservation invariant checked by correctness tests.
func (c *Cluster) TotalBalance(b *Bank) int64 {
	var total int64
	seen := 0
	for k := 0; k < b.AccountsPerPartition*b.Partitions; k++ {
		rid := storage.RID{Table: BankTable, Key: storage.Key(k)}
		node := c.Nodes[int(c.Topo.Primary(c.Dir.Partition(rid)))]
		v, _, err := node.Store().Table(BankTable).Bucket(storage.Key(k)).Get(storage.Key(k))
		if err == nil {
			total += DecodeBalance(v)
			seen++
		}
	}
	if seen != b.AccountsPerPartition*b.Partitions {
		return -1
	}
	return total
}

// MarkCelebritiesHot adds every partition's celebrity account to the
// lookup table (at its home partition), enabling Chiller's two-region
// path without relocating data.
func (b *Bank) MarkCelebritiesHot(c *Cluster) {
	for p := 0; p < b.Partitions; p++ {
		rid := storage.RID{Table: BankTable, Key: b.CelebrityKey(p)}
		c.Dir.SetHot(rid, c.Dir.Default().Partition(rid))
	}
}
