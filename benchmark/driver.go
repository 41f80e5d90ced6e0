package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// The benchmark's own closed-loop driver: client loop, timing, retry and
// backoff, and seeds live here, not in internal/bench/runner.go, so a
// change to the harness the figures use cannot silently change what this
// benchmark measures.

const (
	// maxAttempts is when a client gives up on a request and counts it
	// failed.
	maxAttempts = 1000
	// Jittered exponential backoff between attempts of one request.
	backoffFirst = 2 * time.Microsecond
	backoffCap   = time.Millisecond
	// bucketWidth is the throughput sampling interval.
	bucketWidth = time.Second
)

// Request classes the per-procedure metrics are reported under.
const (
	classNewOrder = iota
	classPayment
	classTransfer
	classAudit
	classOther
	numClasses
)

var classNames = [numClasses]string{"neworder", "payment", "transfer", "audit", "other"}

func classOf(proc string) int {
	switch {
	case strings.HasPrefix(proc, "tpcc.neworder."):
		return classNewOrder
	case proc == tpcc.ProcPayment:
		return classPayment
	case proc == bench.BankTransferProc:
		return classTransfer
	case proc == bench.BankAuditProc, proc == bench.BankSnapAuditProc:
		return classAudit
	}
	return classOther
}

// Span kinds of the traced run: a request span covers first attempt to
// commit; attempt and backoff spans are its children.
const (
	spanRequest = iota
	spanAttempt
	spanBackoff
)

var spanNames = [...]string{"request", "attempt", "backoff"}

// span is one traced interval, kept in memory until the run ends.
// Times are nanoseconds since the start of the measured phase.
type span struct {
	kind    uint8
	class   uint8
	outcome uint8  // txn.AbortReason of an attempt; of a request, AbortNone or the last reason when it failed
	request uint32 // per-client request index: the span identifier its children share
	start   int64
	end     int64
}

// client is one closed-loop client goroutine's state. Nothing here is
// shared while the run is in flight.
type client struct {
	id, part int
	engine   cc.Engine
	requests int

	latNs       []uint32 // latency of every committed request, capped at ~4.29 s
	buckets     []uint32 // commits per bucketWidth since the start of the phase
	issued      uint64
	failed      uint64
	attempts    uint64
	distributed uint64
	committed   [numClasses]uint64
	aborts      map[txn.AbortReason]uint64
	spans       []span // nil unless traced
}

// phase is the outcome of one measured phase.
type phase struct {
	clients []*client
	elapsed time.Duration
	cpu     time.Duration // process user+sys CPU over the phase
}

// drive runs the fixed work on the deployment: every client issues its
// own request stream from rand.New(seed + id*7919) and retries the same
// request until it commits. The phase ends when every client has issued
// its requests or, failing that, at the deadline — a bound on wall time
// for a slow host, not the normal way out.
func drive(d *deployment, seed int64, requests int, deadline time.Duration, traced bool) *phase {
	kind := bench.EngineKind(d.spec.Engine)
	clients := make([]*client, 0, numClients)
	for p := 0; p < partitions; p++ {
		for k := 0; k < clientsPerPartition; k++ {
			cl := &client{
				id:       len(clients),
				part:     p,
				engine:   d.c.Engine(kind, p),
				requests: requests,
				latNs:    make([]uint32, 0, requests),
				buckets:  make([]uint32, int(deadline/bucketWidth)+4),
				aborts:   make(map[txn.AbortReason]uint64),
			}
			if traced {
				cl.spans = make([]span, 0, 2*requests+requests/2)
			}
			clients = append(clients, cl)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	begin := make(chan struct{})
	var t0 time.Time
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			<-begin
			cl.run(d.gen, seed, t0, &stop)
		}(cl)
	}
	ru0 := cpuTime()
	t0 = time.Now()
	close(begin)
	timer := time.AfterFunc(deadline, func() { stop.Store(true) })
	wg.Wait()
	elapsed := time.Since(t0)
	cpu := cpuTime() - ru0
	timer.Stop()
	return &phase{clients: clients, elapsed: elapsed, cpu: cpu}
}

func (cl *client) run(gen generator, seed int64, t0 time.Time, stop *atomic.Bool) {
	rng := rand.New(rand.NewSource(seed + int64(cl.id)*7919))
	// Backoff jitter draws from its own stream so the requests a client
	// issues do not depend on how many attempts earlier ones needed.
	jitter := rand.New(rand.NewSource(seed ^ int64(cl.id+1)*104729))
	ctx := context.Background()
	for i := 0; i < cl.requests && !stop.Load(); i++ {
		req := gen.Next(cl.part, rng)
		class := classOf(req.Proc)
		cl.issued++
		start := time.Since(t0)
		at := start
		reqSpan := len(cl.spans)
		if cl.spans != nil {
			// The request span goes in before its children and is closed
			// when the request is.
			cl.spans = append(cl.spans, span{kind: spanRequest, class: uint8(class), request: uint32(i), start: int64(start)})
		}
		backoff := time.Duration(0)
		var res txn.Result
		for attempt := 1; ; attempt++ {
			res = cl.engine.Run(ctx, req)
			cl.attempts++
			if cl.spans != nil {
				now := time.Since(t0)
				cl.spans = append(cl.spans, span{kind: spanAttempt, class: uint8(class), outcome: uint8(res.Reason), request: uint32(i), start: int64(at), end: int64(now)})
				at = now
			}
			if res.Committed || attempt == maxAttempts {
				break
			}
			cl.aborts[res.Reason]++
			if backoff == 0 {
				backoff = backoffFirst
			} else if backoff < backoffCap {
				backoff *= 2
			}
			time.Sleep(time.Duration(jitter.Int63n(int64(backoff)) + 1))
			if cl.spans != nil {
				now := time.Since(t0)
				cl.spans = append(cl.spans, span{kind: spanBackoff, class: uint8(class), request: uint32(i), start: int64(at), end: int64(now)})
				at = now
			}
		}
		end := time.Since(t0)
		if cl.spans != nil {
			cl.spans[reqSpan].end, cl.spans[reqSpan].outcome = int64(end), uint8(res.Reason)
		}
		if !res.Committed {
			cl.failed++
			continue
		}
		cl.committed[class]++
		if res.Distributed {
			cl.distributed++
		}
		cl.latNs = append(cl.latNs, uint32(min(int64(end-start), math.MaxUint32)))
		b := int(end / bucketWidth)
		if b >= len(cl.buckets) {
			b = len(cl.buckets) - 1
		}
		cl.buckets[b]++
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (ph *phase) sum(f func(*client) uint64) uint64 {
	var n uint64
	for _, cl := range ph.clients {
		n += f(cl)
	}
	return n
}

func (ph *phase) issued() uint64   { return ph.sum(func(c *client) uint64 { return c.issued }) }
func (ph *phase) failed() uint64   { return ph.sum(func(c *client) uint64 { return c.failed }) }
func (ph *phase) attempts() uint64 { return ph.sum(func(c *client) uint64 { return c.attempts }) }
func (ph *phase) commits() uint64 {
	return ph.sum(func(c *client) uint64 { return uint64(len(c.latNs)) })
}
func (ph *phase) committed(class int) uint64 {
	return ph.sum(func(c *client) uint64 { return c.committed[class] })
}

// bucketRates returns the commit rate of every full throughput bucket
// except the first (ramp-up: cold caches, empty lanes); the last, partial
// bucket is dropped too.
func (ph *phase) bucketRates() []float64 {
	full := int(ph.elapsed / bucketWidth)
	var rates []float64
	for b := 1; b < full; b++ {
		var n uint64
		for _, cl := range ph.clients {
			n += uint64(cl.buckets[b])
		}
		rates = append(rates, float64(n)/bucketWidth.Seconds())
	}
	return rates
}

// throughput is the median of the bucket rates, or commits over elapsed
// time when the run is too short to have three full buckets.
func (ph *phase) throughput() float64 {
	if rates := ph.bucketRates(); len(rates) >= 3 {
		return quantile(rates, 0.5)
	}
	return float64(ph.commits()) / ph.elapsed.Seconds()
}

// latencies returns the committed requests' latencies in microseconds,
// sorted.
func (ph *phase) latencies() []float64 {
	out := make([]float64, 0, ph.commits())
	for _, cl := range ph.clients {
		for _, ns := range cl.latNs {
			out = append(out, float64(ns)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs need not be sorted. Zero for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := vs
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), vs...)
		sort.Float64s(s)
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
