package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// setupRepeats is how many times a run builds and loads its cluster;
// setup_s is the median, the run uses the last build.
const setupRepeats = 3

// Result is one workload's outcome: the numbers, whether they can be
// trusted (Correct, Noise), and the full configuration that produced them.
type Result struct {
	Workload    string            `json:"workload"`
	Spec        *Spec             `json:"config"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Traced      bool              `json:"traced"`
	Requests    int               `json:"requests_per_client"`
	Fingerprint string            `json:"input_fingerprint"`
	Noise       Noise             `json:"noise"`
	Correct     bool              `json:"correct"`
	Failures    []string          `json:"check_failures,omitempty"`
	Attempted   uint64            `json:"attempted"`
	Failed      uint64            `json:"failed"`
	LatencyN    uint64            `json:"latency_samples"`
	Metrics     map[string]Metric `json:"metrics"`
}

// runOptions are what every kind of run needs to know; the flags of the
// same names set them.
type runOptions struct {
	seed    int64
	seconds int
	workdir string
}

func (o *runOptions) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed of every client's request stream")
	fs.IntVar(&o.seconds, "seconds", 10, "how long one measured run should take on the reference host; sizes the fixed work and bounds the wall time")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL files and traces; everything the benchmark writes goes here")
}

// prepare validates the options and creates the work directory.
func (o *runOptions) prepare() error {
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d: want 1..60", o.seconds)
	}
	return os.MkdirAll(o.workdir, 0o755)
}

// deadline is when a phase doing share of a run's work is cut short. The
// work is sized to take about 0.9*seconds on the reference host; the
// slack keeps the work fixed, so that both sides of a comparison
// traverse the same database states, on a host up to 40% slower.
func (o runOptions) deadline(share float64) time.Duration {
	return time.Duration(1.3 * share * float64(o.seconds) * float64(time.Second))
}

// measure runs one workload with tracing off and reports the end-to-end
// metrics.
func (s *Spec) measure(o runOptions) (*Result, error) {
	res, err := s.newResult(o, false, 1)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		// Start every build from the same heap: nothing live, the
		// previous cluster's garbage collected.
		runtime.GC()
		t0 := time.Now()
		if d, err = s.setup(o.workdir, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	ph := d.runPhase(o.seed, res.Requests, o.deadline(1), false)
	// HeapInuse after a forced collection, cluster still open: what the
	// fixed work left behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.finish(d, ph)

	commits := float64(ph.commits())
	res.put("setup_s", quantile(setups, 0.5))
	res.put("tput_tps", ph.throughput())
	res.put("lat_p50_us", quantile(ph.latencies(), 0.5))
	res.put("cpu_us_per_commit", float64(ph.cpu.Microseconds())/commits)
	res.put("live_heap_mb", float64(ms.HeapInuse)/(1<<20))
	res.put(failedShare.Name, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(logw, "%s: phase %.2f s, set-ups %.3f s, commits per %v %.0f\n", s.Name, ph.elapsed.Seconds(), setups, bucketWidth, ph.bucketRates())
	return res, nil
}

// newResult checks the input fingerprint and sizes the fixed work.
func (s *Spec) newResult(o runOptions, traced bool, share float64) (*Result, error) {
	fp, err := s.checkFingerprint(o.seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Workload:    s.Name,
		Spec:        s,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Traced:      traced,
		Requests:    s.requestsPerClient(o.seconds, share),
		Fingerprint: fmt.Sprintf("%#016x", fp),
		Metrics:     make(map[string]Metric),
	}, nil
}

// put records a metric; its unit comes from the metric tables.
func (r *Result) put(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is in no table") // a bug in this package, nothing a run can cause
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// finish records the counts of a phase and runs the correctness checks.
func (r *Result) finish(d *deployment, ph *phase) {
	r.Attempted = ph.issued()
	r.Failed = ph.failed()
	r.LatencyN = ph.commits()
	r.Failures = d.verify(ph)
	if r.Failed != 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%d of %d requests did not commit within %d attempts", r.Failed, r.Attempted, maxAttempts))
	}
	r.Correct = len(r.Failures) == 0
}

// runPhase drives the fixed work and leaves the cluster drained and
// settled, ready for the checks. On an MVCC deployment it also drives the
// version GC for the length of the phase.
func (d *deployment) runPhase(seed int64, requests int, deadline time.Duration, traced bool) *phase {
	stopGC := d.startVersionGC()
	// Collect now so that every run enters the phase at the same point of
	// the collector's cycle: the work is fixed, so is what it allocates,
	// and with a fixed start the number of collections it pays for is too.
	runtime.GC()
	ph := drive(d, seed, requests, deadline, traced)
	stopGC()
	d.c.Drain()
	d.c.Settle()
	return ph
}

// Version GC, mirroring chiller.DB's mvccGCLoop: bench.Cluster has no
// watermark loop of its own, and without one version chains grow for the
// whole run (a third of the throughput on bank-ro-mvcc).
const (
	gcInterval  = 5 * time.Millisecond
	gcRetention = 1024
)

func (d *deployment) startVersionGC() (stop func()) {
	if d.c.Clock == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(gcInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if w := d.c.Clock.Stable(); w > gcRetention {
					for _, n := range d.c.Nodes {
						n.Store().SetWatermark(w - gcRetention)
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// guarded runs f under the noise guard: a run taken while the hypervisor
// stole more than maxStealPct of the CPU, or across which the calibration
// loop's speed moved by more than maxCalibDrift, is repeated after a
// pause, up to noiseRetries times. The quietest attempt is kept and stays
// marked noisy if none qualified. retry=false (the driver's single-run
// mode, which has a time budget) observes and marks but never repeats.
func guarded(retry bool, f func() (*Result, error)) (*Result, error) {
	var best *Result
	for attempt := 0; ; attempt++ {
		var res *Result
		n, err := observe(func() (err error) {
			res, err = f()
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Noise = n
		if res.Traced {
			res.put("driver.steal_pct", n.StealPct)
			res.put("driver.calib_ns", n.CalibAfterNs)
		}
		if !n.Noisy {
			return res, nil
		}
		if best == nil || n.StealPct < best.Noise.StealPct {
			best = res
		}
		if !retry || attempt == noiseRetries {
			return best, nil
		}
		fmt.Fprintf(logw, "%s: noisy (steal %.1f%%, calibration %.3f -> %.3f ns); waiting %s and repeating\n",
			res.Workload, n.StealPct, n.CalibBeforeNs, n.CalibAfterNs, noiseWait)
		time.Sleep(noiseWait)
	}
}

// printResult writes a result's metrics by name with their units.
func printResult(r *Result, defs []MetricDef) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	if r.Noise.Noisy {
		verdict += ", NOISY"
	}
	fmt.Fprintf(logw, "%s  seed=%d  requests=%d  n=%d  fingerprint=%s  steal=%.1f%%  calib=%.3f/%.3fns  %s\n",
		r.Workload, r.Seed, r.Attempted, r.LatencyN, r.Fingerprint, r.Noise.StealPct, r.Noise.CalibBeforeNs, r.Noise.CalibAfterNs, verdict)
	for _, f := range r.Failures {
		fmt.Fprintf(logw, "  CHECK FAILED: %s\n", f)
	}
	for _, def := range defs {
		if m, ok := r.Metrics[def.Name]; ok {
			fmt.Fprintf(logw, "  %-44s %14.4f %s\n", def.Name, m.Value, m.Unit)
		}
	}
}
