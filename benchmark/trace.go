package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// The traced run repeats a workload at a quarter of the work with spans
// recorded around every call into the system and the layers' own counters
// scraped before and after. End-to-end metrics are never taken from it;
// an untraced run of the same quarter beside it gives the tracing
// overhead.
const (
	tracedShare = 0.25
	// traceBucket is the throughput sampling interval of the traced run,
	// which is too short for bucketWidth.
	traceBucket = 100 * time.Millisecond
)

// counters is one scrape of what the layers count themselves.
type counters struct {
	msgs, bytes, rpcs, doorbells, doorbellVerbs uint64
	walAppends, walFlushes                      uint64
	mallocs, allocBytes, gcPauseNs              uint64
}

func (d *deployment) scrape() counters {
	var c counters
	// One simnet fabric shares a Stats between its endpoints; tcpnet has
	// one per node.
	seen := make(map[*transport.Stats]bool)
	for _, n := range d.c.Nodes {
		st := n.Endpoint().Stats()
		if seen[st] {
			continue
		}
		seen[st] = true
		c.msgs += st.MessagesSent.Load()
		c.bytes += st.BytesSent.Load()
		c.rpcs += st.RPCs.Load()
		c.doorbells += st.Doorbells.Load()
		c.doorbellVerbs += st.OneSidedVerbs.Load()
	}
	for i := range d.c.Nodes {
		if l := d.c.WAL(i); l != nil {
			c.walAppends += l.Stats().Appends.Load()
			c.walFlushes += l.Stats().Flushes.Load()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return c
}

// trace runs the workload's traced quarter and reports the per-layer
// metrics of the run; the probes are separate (runProbes).
func (s *Spec) trace(o runOptions) (*Result, error) {
	res, err := s.newResult(o, true, tracedShare)
	if err != nil {
		return nil, err
	}
	deadline := o.deadline(tracedShare)

	// One throw-away build first: the reference below must not be the
	// only phase that pays for faulting the heap in.
	warm, err := s.setup(o.workdir, o.seed)
	if err != nil {
		return nil, err
	}
	warm.close()
	runtime.GC()

	// The untraced reference: same work, fresh cluster.
	ref, err := s.setup(o.workdir, o.seed)
	if err != nil {
		return nil, err
	}
	refPhase := ref.runPhase(o.seed, res.Requests, deadline, false)
	ref.close()
	runtime.GC()

	d, err := s.setup(o.workdir, o.seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	d.c.ResetVerbMetrics()
	before := d.scrape()
	ph := d.runPhase(o.seed, res.Requests, deadline, true)
	after := d.scrape()
	verbs := d.c.VerbProfiles()
	res.finish(d, ph)

	commits := float64(ph.commits())
	per := func(a, b uint64) float64 { return float64(a-b) / commits }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m := traceSpans(ph)
	lat := ph.latencies()
	refTput := float64(refPhase.commits()) / refPhase.elapsed.Seconds()
	tput := commits / ph.elapsed.Seconds()

	res.put("driver.lat_p99_us", quantile(lat, 0.99))
	res.put("driver.lat_p999_us", quantile(lat, 0.999))
	res.put("driver.attempts_per_commit", float64(ph.attempts())/commits)
	res.put("driver.backoff_share", m.backoffShare)
	res.put("driver.attempt_p50_us", m.attemptP50)
	for class := classNewOrder; class <= classAudit; class++ {
		res.put("driver.p50_us."+classNames[class], m.classP50[class])
	}
	res.put("driver.distributed_share", float64(ph.sum(func(c *client) uint64 { return c.distributed }))/commits)
	res.put("driver.tput_iqr_pct", m.tputIQRPct)
	res.put("driver.trace_overhead_pct", 100*(refTput-tput)/refTput)

	res.put("runtime.allocs_per_commit", per(after.mallocs, before.mallocs))
	res.put("runtime.alloc_bytes_per_commit", per(after.allocBytes, before.allocBytes))
	res.put("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)

	res.put("transport.msgs_per_commit", per(after.msgs, before.msgs))
	res.put("transport.bytes_per_commit", per(after.bytes, before.bytes))
	res.put("transport.rpcs_per_commit", per(after.rpcs, before.rpcs))
	res.put("transport.doorbells_per_commit", per(after.doorbells, before.doorbells))
	res.put("transport.verbs_per_doorbell", ratio(after.doorbellVerbs-before.doorbellVerbs, after.doorbells-before.doorbells))

	for _, k := range verbKinds {
		var n uint64
		if p := verbs[k]; p != nil {
			n = p.Count
		}
		res.put("server.verb_per_commit."+k, float64(n)/commits)
	}
	for _, k := range verbLatencyKinds {
		var p50, p99 time.Duration
		if p := verbs[k]; p != nil {
			p50, p99 = p.P50, p.P99
		}
		res.put("server.verb_p50_us."+k, float64(p50)/1e3)
		res.put("server.verb_p99_us."+k, float64(p99)/1e3)
	}

	var conflicts, others uint64
	for _, cl := range ph.clients {
		for reason, n := range cl.aborts {
			if reason == txn.AbortLockConflict {
				conflicts += n
			} else {
				others += n
			}
		}
	}
	res.put("cc.aborts_per_commit.lock-conflict", float64(conflicts)/commits)
	res.put("cc.aborts_per_commit.other", float64(others)/commits)

	res.put("wal.appends_per_commit", per(after.walAppends, before.walAppends))
	res.put("wal.appends_per_flush", ratio(after.walAppends-before.walAppends, after.walFlushes-before.walFlushes))
	// The checks replayed the logs, which flushed them: the files now
	// hold every append. Loading wrote none, so the total is the run's.
	res.put("wal.bytes_per_commit", float64(dirBytes(d.walDir))/commits)

	depth, chain := d.chainStats()
	res.put("storage.mvcc_max_chain_depth", float64(depth))
	res.put("storage.max_bucket_chain", float64(chain))

	if err := writeSpans(tracePath(o.workdir, s.Name), ph); err != nil {
		return nil, err
	}
	return res, nil
}

// spanMetrics are the numbers read off the spans themselves.
type spanMetrics struct {
	backoffShare float64
	attemptP50   float64
	classP50     [numClasses]float64
	tputIQRPct   float64
}

func traceSpans(ph *phase) spanMetrics {
	var m spanMetrics
	var attempts []float64
	var perClass [numClasses][]float64
	var backoffNs, requestNs int64
	buckets := make([]float64, int(ph.elapsed/traceBucket)+1)
	for _, cl := range ph.clients {
		for _, sp := range cl.spans {
			dur := sp.end - sp.start
			switch sp.kind {
			case spanAttempt:
				attempts = append(attempts, float64(dur)/1e3)
			case spanBackoff:
				backoffNs += dur
			case spanRequest:
				requestNs += dur
				if txn.AbortReason(sp.outcome) == txn.AbortNone {
					perClass[sp.class] = append(perClass[sp.class], float64(dur)/1e3)
					if b := int(sp.end / int64(traceBucket)); b < len(buckets) {
						buckets[b]++
					}
				}
			}
		}
	}
	if requestNs > 0 {
		m.backoffShare = float64(backoffNs) / float64(requestNs)
	}
	m.attemptP50 = quantile(attempts, 0.5)
	for c := range perClass {
		m.classP50[c] = quantile(perClass[c], 0.5)
	}
	// First bucket (ramp-up) and last (partial) dropped, as end to end.
	if len(buckets) > 4 {
		mid := buckets[1 : len(buckets)-1]
		if med := quantile(mid, 0.5); med > 0 {
			m.tputIQRPct = 100 * (quantile(mid, 0.75) - quantile(mid, 0.25)) / med
		}
	}
	return m
}

// chainStats reads two shapes off the stores at the end of a run: the
// deepest MVCC version chain, and the longest bucket overflow chain of
// the table the workload grows or crowds (TPC-C's order lines; the bank's
// accounts).
func (d *deployment) chainStats() (versionDepth, bucketChain int) {
	table := tpcc.TableOrderLine
	if d.bank != nil {
		table = bench.BankTable
	}
	for _, n := range d.c.Nodes {
		tbl := n.Store().Table(table)
		if tbl == nil {
			continue
		}
		for i := 0; i < tbl.NumBuckets(); i++ {
			bucketChain = max(bucketChain, tbl.BucketAt(i).ChainLength())
		}
		if !n.Store().MVCCEnabled() {
			continue
		}
		tbl.Range(func(key storage.Key, _ []byte, _ uint64) bool {
			versionDepth = max(versionDepth, tbl.ChainDepth(key))
			return true
		})
	}
	return versionDepth, bucketChain
}

// dirBytes sums the sizes of the files under dir ("" gives 0).
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil // a file that vanished is not worth failing the run for
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// tracePath is where a workload's spans are written.
func tracePath(workdir, workload string) string {
	return filepath.Join(workdir, "trace", workload+".trace.jsonl")
}

// writeSpans writes every span of the run as one JSON object per line,
// one client after another, each client's spans in start order. Spans of
// one request share "req" ("<client>.<index>"); the request span comes
// first and is the parent of the attempt and backoff spans after it.
func writeSpans(path string, ph *phase) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, cl := range ph.clients {
		for _, sp := range cl.spans {
			line = appendSpan(line[:0], cl.id, sp)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendSpan appends one span as a JSON line.
func appendSpan(line []byte, client int, sp span) []byte {
	line = append(line, `{"req":"`...)
	line = strconv.AppendInt(line, int64(client), 10)
	line = append(line, '.')
	line = strconv.AppendUint(line, uint64(sp.request), 10)
	line = append(line, `","span":"`...)
	line = append(line, spanNames[sp.kind]...)
	if sp.kind != spanRequest {
		line = append(line, `","parent":"request`...)
	}
	line = append(line, `","client":`...)
	line = strconv.AppendInt(line, int64(client), 10)
	line = append(line, `,"proc":"`...)
	line = append(line, classNames[sp.class]...)
	if sp.kind != spanBackoff {
		line = append(line, `","outcome":"`...)
		if reason := txn.AbortReason(sp.outcome); reason == txn.AbortNone {
			line = append(line, "committed"...)
		} else {
			line = append(line, reason.String()...)
		}
	}
	line = append(line, `","start_ns":`...)
	line = strconv.AppendInt(line, sp.start, 10)
	line = append(line, `,"end_ns":`...)
	line = strconv.AppendInt(line, sp.end, 10)
	return append(line, "}\n"...)
}
