package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// Isolation is the checker matrix's job (internal/check); the benchmark
// checks cheap invariants after every run and refuses to report numbers
// from a run that broke one.

var tpccTables = []storage.TableID{
	tpcc.TableWarehouse, tpcc.TableDistrict, tpcc.TableCustomer, tpcc.TableStock,
	tpcc.TableOrder, tpcc.TableNewOrder, tpcc.TableOrderLine, tpcc.TableHistory,
}

// verify runs the correctness checks on a drained, settled deployment and
// returns one line per failed check (none when the run was correct).
func (d *deployment) verify(ph *phase) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	c := d.c

	if !c.Quiesced() {
		fail("cluster not quiesced: participant state (locks) left behind")
	}
	tables := tpccTables
	if d.bank != nil {
		tables = []storage.TableID{bench.BankTable}
	}
	for _, t := range tables {
		if n := c.VerifyReplicaConsistency(t); n != 0 {
			fail("table %d: %d records differ between primary and replica", t, n)
		}
	}

	if d.bank != nil {
		want := bench.InitialBalance * int64(d.bank.AccountsPerPartition*d.bank.Partitions)
		if got := c.TotalBalance(d.bank); got != want {
			fail("bank total balance %d, want %d (money not conserved)", got, want)
		}
	} else {
		d.verifyTPCC(ph, fail)
	}

	if d.spec.WAL {
		for i := range c.Nodes {
			l := c.WAL(i)
			if len(l.Corruption) != 0 {
				fail("wal node %d: corruption on open: %v", i, l.Corruption)
			}
			rec, err := l.Replay()
			if err != nil {
				fail("wal node %d: replay: %v", i, err)
				continue
			}
			if got, want := uint64(len(rec.Tail)), l.Stats().Appends.Load(); got != want || len(rec.SnapshotErrs) != 0 {
				fail("wal node %d: replay found %d records, %d were appended (snapshot errors: %v)", i, got, want, rec.SnapshotErrs)
			}
		}
	}
	return bad
}

// verifyTPCC checks the two TPC-C consistency conditions the 50/50 mix
// can break: every committed NewOrder advanced exactly one district's
// next-order id, and every Payment added the same amount to a warehouse
// and to one of its districts.
func (d *deployment) verifyTPCC(ph *phase, fail func(string, ...any)) {
	cfg := d.spec.TPCC
	var orders int64
	for w := 0; w < cfg.Warehouses; w++ {
		var districtYTD int64
		for di := 0; di < tpcc.DistrictsPerWarehouse; di++ {
			v, err := d.primaryGet(tpcc.TableDistrict, tpcc.DistrictKey(w, di))
			if err != nil {
				fail("district %d/%d: %v", w, di, err)
				return
			}
			dist := tpcc.DecodeDistrict(v)
			orders += dist.NextOID - 1
			districtYTD += dist.YTD
		}
		v, err := d.primaryGet(tpcc.TableWarehouse, tpcc.WarehouseKey(w))
		if err != nil {
			fail("warehouse %d: %v", w, err)
			return
		}
		if ytd := tpcc.DecodeWarehouse(v).YTD; ytd != districtYTD {
			fail("warehouse %d: W_YTD %d != sum of D_YTD %d", w, ytd, districtYTD)
		}
	}
	if want := int64(ph.committed(classNewOrder)); orders != want {
		fail("districts issued %d order ids, clients committed %d NewOrders", orders, want)
	}
}

// primaryGet reads a record from the store of its partition's primary.
func (d *deployment) primaryGet(table storage.TableID, key storage.Key) ([]byte, error) {
	rid := storage.RID{Table: table, Key: key}
	node := d.c.Nodes[int(d.c.Dir.PrimaryOf(rid))]
	v, _, err := node.Store().Bucket(table, key).Get(key)
	return v, err
}

// fingerprintRequests is how many requests of every client the input
// fingerprint covers.
const fingerprintRequests = 1000

// goldenFingerprints holds the input fingerprint of every workload at the
// default seed 42. A later edit to tpcc.Workload.Next, Bank.Next or a
// procedure's argument layout changes the load; this makes it fail loudly
// instead. After a deliberate change, take the new values from the
// failure message.
var goldenFingerprints = map[string]uint64{
	"tpcc-dist":     0x78681862e35c7213,
	"tpcc-local":    0x16f16540c2cbf2d6,
	"tpcc-dist-2pl": 0x78681862e35c7213,
	"tpcc-dist-tcp": 0x78681862e35c7213,
	"tpcc-dist-wal": 0x78681862e35c7213,
	"bank-ro-mvcc":  0x2c9c75fb81439196,
}

const goldenSeed = 42

// fingerprint hashes the first requests of every client, generated
// single-threaded from a fresh generator, so it depends on nothing but
// the seed and the generator code. Payment's history sequence number
// comes from a counter all clients share and is left out.
func (s *Spec) fingerprint(seed int64) (uint64, error) {
	gen, err := s.newGenerator()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	for id := 0; id < numClients; id++ {
		rng := rand.New(rand.NewSource(seed + int64(id)*7919))
		for i := 0; i < fingerprintRequests; i++ {
			req := gen.Next(id/clientsPerPartition, rng)
			h.Write([]byte(req.Proc))
			args := req.Args
			if req.Proc == tpcc.ProcPayment {
				args = args[:6]
			}
			for _, a := range args {
				for b := 0; b < 8; b++ {
					buf[b] = byte(a >> (8 * b))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64(), nil
}

// checkFingerprint computes the input fingerprint for seed and, at the
// golden seed, compares it with the recorded value.
func (s *Spec) checkFingerprint(seed int64) (uint64, error) {
	fp, err := s.fingerprint(seed)
	if err != nil {
		return 0, err
	}
	if want := goldenFingerprints[s.Name]; seed == goldenSeed && fp != want {
		return fp, fmt.Errorf("%s: input fingerprint %#016x, golden %#016x: the request generator or an argument layout changed", s.Name, fp, want)
	}
	return fp, nil
}
