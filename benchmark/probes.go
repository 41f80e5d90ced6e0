package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/partition/chillerpart"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/wire"
	"github.com/chillerdb/chiller/internal/workload/instacart"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// The per-layer probes: one number for each thing a transaction touches,
// taken from outside through the layer's exported functions. They depend
// on no workload and no seed. README.md says which end-to-end metric each
// group should move, and on which workload.

// probeBatches is how many times a probe repeats its fixed iteration
// count. A time is the fastest batch (the one the host disturbed least);
// allocs/op is the lowest batch, exact from runtime.MemStats.
const probeBatches = 5

// probes collects results and the first error.
type probes struct {
	out     map[string]Metric
	workdir string

	mu  sync.Mutex // fail is called from the parallel probes' goroutines
	err error
}

func (p *probes) set(name string, v float64) {
	p.out[name] = Metric{Value: v, Unit: unitOf[name]}
}

func (p *probes) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
	}
}

// bench times probeBatches batches of fn(iters) and records
// <name>_ns as the fastest batch's time per iteration and, when allocs is
// set, <name>_allocs as the lowest batch's allocations per iteration.
func (p *probes) bench(name string, iters int, allocs bool, fn func(n int)) {
	ns, al := measureBatches(probeBatches, iters, fn)
	p.set(name+"_ns", ns)
	if allocs {
		p.set(name+"_allocs", al)
	}
}

func measureBatches(batches, iters int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	best := time.Duration(1<<63 - 1)
	fewest := ^uint64(0)
	var ms runtime.MemStats
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fn(iters)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		best = min(best, d)
		fewest = min(fewest, ms.Mallocs-m0)
	}
	return float64(best.Nanoseconds()) / float64(iters), float64(fewest) / float64(iters)
}

// runProbes runs every probe once and returns the metrics by name.
func runProbes(workdir string) (map[string]Metric, error) {
	p := &probes{out: make(map[string]Metric, len(probeMetrics)), workdir: workdir}
	for _, group := range []func(){
		p.storage, p.codecs, p.simnet, p.tcpnet, p.server, p.wal, p.directory, p.transactions, p.partitioner,
	} {
		group()
		if p.err != nil {
			return nil, p.err
		}
		runtime.GC()
	}
	for _, name := range probeMetrics {
		if _, ok := p.out[name]; !ok {
			return nil, fmt.Errorf("probe %s was not measured", name)
		}
	}
	return p.out, nil
}

var payload64 = make([]byte, 64)

// --- storage ----------------------------------------------------------

func (p *probes) storage() {
	st := storage.NewStore()
	tbl := st.CreateTable(1, 1<<14)
	const keys = 1 << 16
	for k := storage.Key(0); k < keys; k++ {
		p.fail(tbl.Bucket(k).Insert(k, payload64))
	}
	lock := &tbl.Bucket(7).Lock
	p.bench("storage.lock", 1_000_000, false, func(n int) {
		for i := 0; i < n; i++ {
			lock.TryLock(storage.LockExclusive)
			lock.Unlock(storage.LockExclusive)
		}
	})
	p.bench("storage.get", 500_000, false, func(n int) {
		for i := 0; i < n; i++ {
			k := storage.Key(i*7919) % keys
			if _, _, err := tbl.Bucket(k).Get(k); err != nil {
				p.fail(err)
				return
			}
		}
	})
	p.bench("storage.put", 500_000, true, func(n int) {
		for i := 0; i < n; i++ {
			k := storage.Key(i*7919) % keys
			if err := tbl.Bucket(k).Put(k, payload64); err != nil {
				p.fail(err)
				return
			}
		}
	})

	// A million order-line-shaped keys into a table sized like TPC-C's
	// order-line table: the cost includes the overflow chains growing.
	// Three batches, not five: each builds a 100 MB table.
	line := make([]byte, 32)
	ns, _ := measureBatches(3, 1_000_000, func(n int) {
		t := storage.NewStore().CreateTable(tpcc.TableOrderLine, 1<<15)
		for i := 0; i < n; i++ {
			order := tpcc.OrderKey(i%4, i/4%10, i/400)
			k := tpcc.OrderLineKey(order, i/40%10)
			if err := t.Bucket(k).Insert(k, line); err != nil {
				p.fail(fmt.Errorf("insert_1m: key %d: %w", k, err))
				return
			}
		}
	})
	p.set("storage.insert_1m_ns", ns)
	runtime.GC()

	mv := storage.NewStore()
	mv.EnableMVCC()
	vt := mv.CreateTable(2, 1<<10)
	const vkeys = 1 << 10
	// Every key carries eight retained versions below the live one; the
	// read asks for the oldest, so it walks the whole chain.
	for ts := uint64(1); ts <= 9; ts++ {
		for k := storage.Key(0); k < vkeys; k++ {
			vt.UpsertAt(k, payload64, ts)
		}
	}
	p.bench("storage.mvcc_readat", 500_000, false, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := vt.ReadAt(storage.Key(i%vkeys), 1); err != nil {
				p.fail(err)
				return
			}
		}
	})
	ts := uint64(10)
	p.bench("storage.mvcc_putat", 500_000, true, func(n int) {
		for i := 0; i < n; i++ {
			ts++
			if err := vt.PutAt(storage.Key(i%vkeys), payload64, ts); err != nil {
				p.fail(err)
				return
			}
			// The watermark trails as the GC loop keeps it: chains stay
			// about eight deep.
			if i%64 == 0 && ts > 8*vkeys {
				mv.SetWatermark(ts - 8*vkeys)
			}
		}
	})

	clock := storage.NewClock()
	var ring [8]uint64
	for i := range ring {
		ring[i] = clock.Reserve()
	}
	p.bench("storage.clock_cycle", 500_000, false, func(n int) {
		for i := 0; i < n; i++ {
			slot := &ring[i%len(ring)]
			clock.Release(*slot)
			*slot = clock.Reserve()
			clock.Stable()
		}
	})
}

// --- wire and server codecs -------------------------------------------

func (p *probes) codecs() {
	frames := make([]wire.Frame, 4)
	for i := range frames {
		frames[i] = wire.Frame{Verb: server.VerbLockRead, Payload: payload64}
	}
	encoded := wire.EncodeFrames(frames)
	p.bench("wire.frames_encode", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			wire.EncodeFrames(frames)
		}
	})
	p.bench("wire.frames_decode", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeFrames(encoded); err != nil {
				p.fail(err)
				return
			}
		}
	})

	entries := make([]server.LockEntry, 4)
	for i := range entries {
		entries[i] = server.LockEntry{OpID: i, Table: 1, Key: storage.Key(i * 31), Mode: storage.LockExclusive, Read: true, MustExist: true}
	}
	p.bench("server.proto_lockreq", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := server.DecodeLockRequest(server.EncodeLockRequest(uint64(i), entries)); err != nil {
				p.fail(err)
				return
			}
		}
	})
	writes := make([]server.WriteOp, 10)
	for i := range writes {
		writes[i] = server.WriteOp{Table: 1, Key: storage.Key(i * 31), Type: txn.OpUpdate, Value: payload64}
	}
	p.bench("server.proto_writes", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, _, err := server.DecodeWrites(server.EncodeWrites(uint64(i), uint64(i), writes)); err != nil {
				p.fail(err)
				return
			}
		}
	})
}

// --- fabrics ----------------------------------------------------------

// fabricProbes runs the call/send/one-sided probes every fabric has, from
// endpoint a to endpoint b.
func (p *probes) fabricProbes(prefix string, a, b transport.Endpoint, iters int) {
	echo := func(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil }
	var sunk atomic.Int64
	b.Handle("echo", echo)
	b.HandleOneSided("echo1", echo)
	b.Handle("sink", func(transport.NodeID, []byte) ([]byte, error) {
		sunk.Add(1)
		return nil, nil
	})
	to := b.ID()
	p.bench(prefix+".call", iters, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.Call(to, "echo", payload64); err != nil {
				p.fail(err)
				return
			}
		}
	})
	// One-way sends, timed until the last one has been handled.
	ns, _ := measureBatches(probeBatches, iters, func(n int) {
		want := sunk.Load() + int64(n)
		for i := 0; i < n; i++ {
			if err := a.Send(to, "sink", payload64); err != nil {
				p.fail(err)
				return
			}
		}
		for sunk.Load() < want {
			runtime.Gosched()
		}
	})
	p.set(prefix+".send_ns", ns)
	p.bench(prefix+".onesided", iters, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.CallOneSided(to, "echo1", payload64, 1); err != nil {
				p.fail(err)
				return
			}
		}
	})
}

func (p *probes) simnet() {
	zero := simfab.New(simfab.Config{})
	p.fabricProbes("simnet", zero.Endpoint(0), zero.Endpoint(1), 20_000)
	zero.Close()

	// The round trip a coordinator observes at the workloads' 5 us
	// one-way latency (nominal 10 us): timer slop and dispatcher wake-ups
	// are on top.
	lat := simfab.New(simfab.Config{Latency: oneWayLatency})
	defer lat.Close()
	a, b := lat.Endpoint(0), lat.Endpoint(1)
	echo := func(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil }
	b.Handle("echo", echo)
	b.HandleOneSided("echo1", echo)
	ns, _ := measureBatches(probeBatches, 1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.Call(1, "echo", payload64); err != nil {
				p.fail(err)
				return
			}
		}
	})
	p.set("simnet.call_5us_rtt_us", ns/1e3)
	ns, _ = measureBatches(probeBatches, 1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.CallOneSided(1, "echo1", payload64, 1); err != nil {
				p.fail(err)
				return
			}
		}
	})
	p.set("simnet.onesided_5us_rtt_us", ns/1e3)
}

func (p *probes) tcpnet() {
	a, err := tcpnet.New(tcpnet.Config{ID: 0})
	if err != nil {
		p.fail(err)
		return
	}
	defer a.Close()
	b, err := tcpnet.New(tcpnet.Config{ID: 1})
	if err != nil {
		p.fail(err)
		return
	}
	defer b.Close()
	peers := map[transport.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)

	const iters = 3000
	p.fabricProbes("tcpnet", a, b, iters)
	big := make([]byte, 4096)
	p.bench("tcpnet.call_4k", iters, false, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.Call(1, "echo", big); err != nil {
				p.fail(err)
				return
			}
		}
	})
	// Eight callers sharing the one link, as eight clients share a
	// node's connection to a peer.
	p.bench("tcpnet.call_par8", iters, false, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/8; i++ {
					if _, err := a.Call(1, "echo", payload64); err != nil {
						p.fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// --- server -----------------------------------------------------------

// nodePair wires a sender (node 0) and a destination (node 1, which
// primaries the odd keys of table 1) on a zero-latency simfab.
func nodePair() (sender, dest *server.Node, closeAll func()) {
	net := simfab.New(simfab.Config{})
	topo := cluster.NewTopology(2, 1)
	dir := cluster.NewDirectory(topo, cluster.FuncPartitioner{
		Label: "key-parity",
		Fn:    func(rid storage.RID) cluster.PartitionID { return cluster.PartitionID(rid.Key % 2) },
	})
	dir.SetLanes(lanesPerNode)
	mk := func(id simfab.NodeID) *server.Node {
		st := storage.NewStore()
		tbl := st.CreateTable(1, 1<<10)
		for k := storage.Key(0); k < 1<<12; k++ {
			if err := tbl.Bucket(k).Insert(k, payload64); err != nil {
				panic(err) // fresh table, distinct keys
			}
		}
		return server.New(net.Endpoint(id), st, txn.NewRegistry(), dir, cluster.PartitionID(id))
	}
	sender, dest = mk(0), mk(1)
	return sender, dest, func() {
		net.Close()
		sender.Close()
		dest.Close()
	}
}

// lockBatches returns count two-record exclusive lock-and-read batches on
// keys n primaries, every key in a bucket of its own: locks are per
// bucket, and two batches sharing one would conflict.
func lockBatches(n *server.Node, count int) [][]server.LockEntry {
	tbl := n.Store().Table(1)
	used := make(map[int]bool)
	var keys []storage.Key
	for k := storage.Key(n.ID()); len(keys) < 2*count; k += 2 {
		if b := tbl.BucketIndex(k); !used[b] {
			used[b] = true
			keys = append(keys, k)
		}
	}
	batches := make([][]server.LockEntry, count)
	for i := range batches {
		for op, k := range keys[2*i : 2*i+2] {
			batches[i] = append(batches[i], server.LockEntry{OpID: op, Table: 1, Key: k, Mode: storage.LockExclusive, Read: true, MustExist: true})
		}
	}
	return batches
}

func (p *probes) server() {
	sender, dest, closeAll := nodePair()
	defer closeAll()
	var txnID uint64

	p.bench("server.lane_serial", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			sender.WithLaneSerial(i%lanesPerNode, func() {})
		}
	})
	entries := lockBatches(sender, 1)[0]
	p.bench("server.lockread_local", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			txnID++
			if r := sender.LockReadLocal(txnID, entries); !r.OK {
				p.fail(fmt.Errorf("lockread_local: %v", r.Reason))
				return
			}
			sender.AbortLocal(txnID)
		}
	})
	writes := []server.WriteOp{
		{Table: 1, Key: entries[0].Key, Type: txn.OpUpdate, Value: payload64},
		{Table: 1, Key: entries[1].Key, Type: txn.OpUpdate, Value: payload64},
	}
	// The whole local participant cycle: lock and read two records, apply
	// two writes, release.
	p.bench("server.commit_local", 100_000, true, func(n int) {
		for i := 0; i < n; i++ {
			txnID++
			if r := sender.LockReadLocal(txnID, entries); !r.OK {
				p.fail(fmt.Errorf("commit_local: %v", r.Reason))
				return
			}
			if err := sender.CommitLocal(txnID, 0, writes); err != nil {
				p.fail(err)
				return
			}
		}
	})

	four := lockBatches(dest, 4)
	remote, to := four[0], dest.ID()
	// Lock-and-read at the remote node, then abort: the scalar two-sided
	// path (2PL, OCC) against the doorbell path (Chiller batched).
	p.bench("server.lockread_scalar", 10_000, true, func(n int) {
		for i := 0; i < n; i++ {
			txnID++
			if r, err := sender.LockRead(to, txnID, remote); err != nil || !r.OK {
				p.fail(fmt.Errorf("lockread_scalar: %v %v", r, err))
				return
			}
			sender.AbortAt(to, txnID)
		}
	})
	// ring ships a doorbell and checks every frame as a coordinator does:
	// the frame's own error, and for a lock wave the decoded response.
	ring := func(d *server.Doorbell, lockWave bool) bool {
		pd := d.Ring()
		res, err := pd.Wait()
		for _, fr := range res {
			if err == nil {
				err = pd.Err(fr)
			}
			if err == nil && lockWave {
				var r *server.LockResponse
				if r, err = server.DecodeLockResponse(fr.Payload); err == nil && !r.OK {
					err = fmt.Errorf("doorbell lock wave refused: %v", r.Reason)
				}
			}
		}
		pd.Release()
		p.fail(err)
		return err == nil
	}
	p.bench("server.lockread_doorbell", 10_000, true, func(n int) {
		for i := 0; i < n; i++ {
			txnID++
			d := sender.NewDoorbell(to)
			d.PostLockRead(txnID, remote)
			if !ring(d, true) {
				return
			}
			d = sender.NewDoorbell(to)
			d.Post(server.VerbAbort, server.EncodeAbort(txnID))
			if !ring(d, false) {
				return
			}
		}
	})
	// Four lock waves in one ring, four aborts in the next: what
	// batching buys per verb.
	p.bench("server.doorbell_4verb", 10_000, true, func(n int) {
		for i := 0; i < n; i++ {
			d := sender.NewDoorbell(to)
			for j := range four {
				d.PostLockRead(txnID+uint64(j)+1, four[j])
			}
			if !ring(d, true) {
				return
			}
			d = sender.NewDoorbell(to)
			for j := range four {
				d.Post(server.VerbAbort, server.EncodeAbort(txnID+uint64(j)+1))
			}
			if !ring(d, false) {
				return
			}
			txnID += 4
		}
	})
}

// --- wal --------------------------------------------------------------

func (p *probes) wal() {
	dir, err := os.MkdirTemp(p.workdir, "walprobe-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, lanesPerNode, wal.Policy{NoSync: true})
	if err != nil {
		p.fail(err)
		return
	}
	defer l.Close()
	rec := make([]byte, 256)
	appendWait := func(lane int) {
		p.fail(l.Append(lane, wal.RecCommit, rec).Wait())
	}
	// Append and wait for the group-commit flush, one caller: the whole
	// flush interval is on the critical path.
	p.bench("wal.append", 100, true, func(n int) {
		for i := 0; i < n; i++ {
			appendWait(i % lanesPerNode)
		}
	})
	a0, f0 := l.Stats().Appends.Load(), l.Stats().Flushes.Load()
	p.bench("wal.append_par8", 1600, false, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/8; i++ {
					appendWait(g % lanesPerNode)
				}
			}()
		}
		wg.Wait()
	})
	if flushes := l.Stats().Flushes.Load() - f0; flushes > 0 {
		p.set("wal.appends_per_flush_par8", float64(l.Stats().Appends.Load()-a0)/float64(flushes))
	} else {
		p.set("wal.appends_per_flush_par8", 0)
	}

	// Fill up to 100k records without waiting, then time reading them back.
	const replayRecords = 100_000
	for i := int(l.Stats().Appends.Load()); i < replayRecords; i++ {
		l.Append(i%lanesPerNode, wal.RecCommit, rec)
	}
	ns, _ := measureBatches(probeBatches, 1, func(int) {
		r, err := l.Replay()
		if err == nil && len(r.Tail) != replayRecords {
			err = fmt.Errorf("wal replay: %d records, want %d", len(r.Tail), replayRecords)
		}
		p.fail(err)
	})
	p.set("wal.replay_100k_ms", ns/1e6)
}

// --- directory --------------------------------------------------------

func (p *probes) directory() {
	// The directory as tpcc-* has it: every stock row of four warehouses
	// in the hot-record lookup table (400k entries).
	cfg := *tpccMix(0)
	dir := cluster.NewDirectory(cluster.NewTopology(partitions, 1), tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
	tpcc.MarkHot(dir, cfg)
	rids := make([]storage.RID, 1<<12)
	for i := range rids {
		if i%2 == 0 { // in the lookup table
			rids[i] = storage.RID{Table: tpcc.TableStock, Key: tpcc.StockKey(i%4, i*37%cfg.Items)}
		} else { // not in it: falls through to the default partitioner
			rids[i] = storage.RID{Table: tpcc.TableCustomer, Key: tpcc.CustomerKey(i%4, i%10, i*37%cfg.CustomersPerDistrict)}
		}
	}
	p.bench("cluster.dir_partition", 500_000, false, func(n int) {
		for i := 0; i < n; i++ {
			dir.Partition(rids[i%len(rids)])
		}
	})
	p.bench("cluster.dir_ishot", 500_000, false, func(n int) {
		for i := 0; i < n; i++ {
			dir.IsHot(rids[i%len(rids)])
		}
	})
}

// --- one uncontended transaction ---------------------------------------

// commit runs req on engine until it commits. The probes issue one
// transaction at a time, so a retry only happens when the previous
// transaction's background commit tail still holds a lock; a tight retry
// loop can starve that tail, hence the pause.
func commit(engine cc.Engine, req *txn.Request) error {
	var res txn.Result
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if res = engine.Run(context.Background(), req); res.Committed {
			return nil
		}
		if attempt > 10 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return fmt.Errorf("%s%v did not commit in %d attempts: %v %s", req.Proc, req.Args, maxAttempts, res.Reason, res.Detail)
}

func (p *probes) transactions() {
	const iters = 1000
	// Two nodes, near-zero latency (bench.NewCluster turns 0 into its
	// default), no replicas: what is left is the engine's own work.
	small := func(remote float64, newOrderPct int) tpcc.Config {
		c := *tpccMix(remote)
		c.Warehouses, c.Partitions = 2, 2
		c.CustomersPerDistrict, c.Items = 300, 10000
		c.NewOrderPct, c.PaymentPct = newOrderPct, 100-newOrderPct
		return c
	}
	cfg := small(0, 100)
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions: 2, Replication: 1, Latency: time.Nanosecond, Lanes: lanesPerNode, VerbBatching: true,
	}, tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
	defer c.Close()
	p.fail(tpcc.RegisterAll(c.Registry))
	p.fail(tpcc.Load(c, cfg))
	tpcc.MarkHot(c.Dir, cfg)
	if p.err != nil {
		return
	}

	requests := func(cfg tpcc.Config) []*txn.Request {
		w, err := tpcc.NewWorkload(cfg)
		p.fail(err)
		if err != nil {
			return nil
		}
		// A request is never run twice: a Payment's history key is in
		// its arguments, and inserting it again would fail.
		rng := rand.New(rand.NewSource(goldenSeed))
		reqs := make([]*txn.Request, probeBatches*iters)
		for i := range reqs {
			reqs[i] = w.Next(0, rng)
		}
		return reqs
	}
	run := func(name string, kind bench.EngineKind, reqs []*txn.Request) {
		engine := c.Engine(kind, 0)
		p.bench(name, iters, true, func(n int) {
			for _, req := range reqs[:n] {
				if err := commit(engine, req); err != nil {
					p.fail(fmt.Errorf("%s: %w", name, err))
					return
				}
			}
			reqs = reqs[n:]
			c.Drain()
		})
	}
	local, dist := requests(small(0, 100)), requests(small(1, 100))
	if p.err != nil {
		return
	}
	chiller := c.Engine(bench.EngineChiller, 0).(*core.Engine)
	p.bench("depgraph.decide_neworder", 20_000, true, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := chiller.Decide(dist[i%len(dist)]); err != nil {
				p.fail(err)
				return
			}
		}
	})
	run("core.neworder_local", bench.EngineChiller, local)
	run("core.neworder_dist", bench.EngineChiller, dist)
	run("core.payment_dist", bench.EngineChiller, requests(small(1, 0)))
	run("twopl.neworder_dist", bench.Engine2PL, requests(small(1, 100)))
	run("occ.neworder_dist", bench.EngineOCC, requests(small(1, 100)))

	// A snapshot audit on an MVCC bank: two nodes, no replicas, so about
	// half the three reads need a snap-read verb.
	bank := &bench.Bank{AccountsPerPartition: 1000, RemoteProb: 0.5, ReadOnlyProb: 1, SnapshotReads: true}
	mc := bench.NewCluster(bench.ClusterConfig{
		Partitions: 2, Replication: 1, Latency: time.Nanosecond, Lanes: lanesPerNode, VerbBatching: true, MVCC: true,
	}, cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{bench.BankTable: 2000}})
	defer mc.Close()
	if err := bench.SetupBank(mc, bank, true); err != nil {
		p.fail(err)
		return
	}
	rng := rand.New(rand.NewSource(goldenSeed))
	audits := make([]*txn.Request, iters)
	for i := range audits {
		audits[i] = bank.Next(0, rng)
	}
	engine := mc.Engine(bench.EngineChiller, 0)
	p.bench("core.saudit", 20*iters, true, func(n int) {
		for i := 0; i < n; i++ {
			if err := commit(engine, audits[i%iters]); err != nil {
				p.fail(err)
				return
			}
		}
	})
}

// --- partitioner -------------------------------------------------------

func (p *probes) partitioner() {
	const traceTxns = 4000
	w := instacart.NewWorkload(instacart.Config{Products: 5000, Partitions: partitions, Seed: goldenSeed}.Defaults())
	agg := w.BuildAggregate(traceTxns, rand.New(rand.NewSource(goldenSeed)), float64(traceTxns)/float64(numClients))
	ns, _ := measureBatches(probeBatches, 1, func(int) {
		_, err := chillerpart.Partition(agg, chillerpart.Config{K: partitions, Lanes: lanesPerNode, Seed: goldenSeed, HotThreshold: 0.05})
		p.fail(err)
	})
	p.set("chillerpart.partition_4k_ms", ns/1e6)
}
