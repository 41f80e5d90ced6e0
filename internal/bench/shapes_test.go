//go:build shapes

package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// Throughput-ordering tests: who leads, who collapses. They compare
// wall-clock rates of live runs, which a loaded 2-vCPU host inverts
// often enough that they cannot gate tier-1; the nightly job runs them
// (`go test -tags shapes ./internal/bench`), as does anyone re-deriving
// docs/FIGURES.md. Tier-1 keeps TestExperimentsSmoke, which runs every
// experiment and asserts only schedule-independent facts.

// retryShapes runs one figure-sweep-plus-assertions attempt and, if any
// assertion fails, regenerates the sweep once and asserts strictly on
// the rerun. Shape comparisons at go-test scale sit only a few percent
// above scheduler noise, and shared/virtualized hosts take CPU-steal
// windows hundreds of milliseconds long that slow an arbitrary segment
// of one sweep — a transient glitch passes the rerun, while a real
// regression fails both attempts.
func retryShapes(t *testing.T, name string, attempt func() ([]string, error)) {
	t.Helper()
	errs, err := attempt()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		return
	}
	t.Logf("%s assertions failed on the first sweep (%v); re-running once to rule out a host slowdown", name, errs)
	// Let a transient CPU-steal window or GC spike pass before the
	// rerun: an immediate retry under the same contention just fails
	// twice.
	time.Sleep(2 * time.Second)
	errs, err = attempt()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		t.Error(e)
	}
}

func TestFigure7Shapes(t *testing.T) {
	opt := testOptions()
	retryShapes(t, "Figure 7", func() ([]string, error) {
		fig, err := Figure7(opt)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fig.Fprint(&buf)
		t.Logf("\n%s", buf.String())

		var errs []string
		// At the largest sweep point Chiller must lead both baselines.
		chiller, _ := fig.Get(SchemeChiller, 4)
		hash, _ := fig.Get(SchemeHash, 4)
		schism, _ := fig.Get(SchemeSchism, 4)
		if chiller <= hash {
			errs = append(errs, fmt.Sprintf("chiller %.0f <= hash %.0f at 4 partitions", chiller, hash))
		}
		if chiller <= schism {
			errs = append(errs, fmt.Sprintf("chiller %.0f <= schism %.0f at 4 partitions", chiller, schism))
		}
		// Chiller must not collapse as partitions grow. The paper shows
		// near-linear scaling — on hardware where every partition brings its
		// own CPU. Under go test all partitions share one core, so growing
		// the cluster grows the offered load (clients scale with partitions)
		// without growing compute, and per-point run-to-run noise on a busy
		// CI runner is ±15%. The guard therefore only rejects genuine
		// collapse (the serialized-coordinator regression this repo started
		// from scored well under this bar at the same absolute throughput
		// levels); the substantive Figure-7 claim — Chiller ahead of both
		// baselines at every partition count — is asserted strictly above.
		c2, _ := fig.Get(SchemeChiller, 2)
		if chiller < 0.5*c2 {
			errs = append(errs, fmt.Sprintf("chiller collapsed with partitions: %.0f at 4 parts vs %.0f at 2", chiller, c2))
		}
		return errs, nil
	})
}

func TestFigure9Shapes(t *testing.T) {
	opt := testOptions()
	retryShapes(t, "Figure 9", func() ([]string, error) {
		thr, abr, brk, err := Figure9(opt)
		if err != nil {
			return nil, err
		}
		for _, f := range []*Figure{thr, abr, brk} {
			var buf bytes.Buffer
			f.Fprint(&buf)
			t.Logf("\n%s", buf.String())
		}
		var errs []string
		// At concurrency 1, 2PL and Chiller are close (paper: identical).
		c1, _ := thr.Get("Chiller", 1)
		p1, _ := thr.Get("2PL", 1)
		if c1 < p1/2 {
			errs = append(errs, fmt.Sprintf("at 1 concurrent txn Chiller %.0f vastly below 2PL %.0f", c1, p1))
		}
		// At max concurrency Chiller leads (averaged with the adjacent
		// point — single 250ms points carry several percent of scheduler
		// noise) and keeps the lowest abort rate.
		x := float64(opt.MaxConcurrency)
		avg2 := func(f *Figure, label string) float64 {
			a, _ := f.Get(label, x)
			b, ok := f.Get(label, x-1)
			if !ok {
				return a
			}
			return (a + b) / 2
		}
		cT := avg2(thr, "Chiller")
		pT := avg2(thr, "2PL")
		oT := avg2(thr, "OCC")
		if cT <= pT || cT <= oT {
			errs = append(errs, fmt.Sprintf("at %v-%v concurrent Chiller %.0f not ahead (2PL %.0f, OCC %.0f)", x-1, x, cT, pT, oT))
		}
		cA := avg2(abr, "Chiller")
		pA := avg2(abr, "2PL")
		if cA >= pA {
			errs = append(errs, fmt.Sprintf("Chiller abort rate %.3f not below 2PL %.3f", cA, pA))
		}
		return errs, nil
	})
}

func TestFigure10Shapes(t *testing.T) {
	opt := testOptions()
	// The margins between Chiller and the 1-txn baselines are a few
	// percent at this scale, so this figure gets a longer window than the
	// other shape tests to keep scheduler noise below them. All three
	// engines ride the same doorbell waves, so this is the paper's
	// like-for-like comparison on equal transport.
	opt.Duration = 2 * opt.Duration
	retryShapes(t, "Figure 10", func() ([]string, error) {
		fig, err := Figure10(opt)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fig.Fprint(&buf)
		t.Logf("\n%s", buf.String())

		// Each assertion compares band means (x∈{0,20} vs x∈{80,100})
		// rather than single sweep points: the paper's claims concern the
		// low- and high-distribution regimes, and a single point on a
		// shared host carries several percent of scheduler noise — the
		// same reason FIGURES.md tells readers to compare the 80-100%
		// band.
		avg := func(label string, xs ...float64) float64 {
			sum, n := 0.0, 0
			for _, x := range xs {
				if y, ok := fig.Get(label, x); ok {
					sum += y
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
		var errs []string
		// Chiller at 80-100% distributed must retain most of its 0-20%
		// throughput (paper: degrades < 20%; we allow 50% for the small
		// simulation).
		c0 := avg("Chiller (5 txn)", 0, 20)
		cHi := avg("Chiller (5 txn)", 80, 100)
		if cHi < c0/2 {
			errs = append(errs, fmt.Sprintf("Chiller degraded %.0f → %.0f (>50%%)", c0, cHi))
		}
		// 2PL(5) must degrade more steeply than Chiller, relatively.
		p0 := avg("2PL (5 txn)", 0, 20)
		pHi := avg("2PL (5 txn)", 80, 100)
		if p0 > 0 && c0 > 0 && pHi/p0 > cHi/c0+0.15 {
			errs = append(errs, fmt.Sprintf("2PL retained %.2f of its throughput vs Chiller %.2f", pHi/p0, cHi/c0))
		}
		// Chiller leads the equal-concurrency baselines outright at
		// 80-100% distributed — the paper's like-for-like comparison, and
		// a ~2× margin here.
		for _, other := range []string{"2PL (5 txn)", "OCC (5 txn)"} {
			if o := avg(other, 80, 100); cHi <= o {
				errs = append(errs, fmt.Sprintf("at 80-100%% distributed: Chiller %.0f <= %s %.0f", cHi, other, o))
			}
		}
		// The single-transaction baselines run nearly contention-free at
		// this miniature scale (one client per warehouse), so unlike in
		// the paper they land near Chiller — on an unloaded host Chiller
		// leads them by 15-30%, but under host CPU steal their minimal
		// goroutine footprint degrades far less than Chiller's 5-client +
		// routed-coordinator + commit-tail pipeline. Keep them as a
		// gross-regression tripwire: Chiller must stay above 70% of the
		// best of them (a real protocol regression shows up as 2× or
		// worse).
		best1 := avg("2PL (1 txn)", 80, 100)
		if o := avg("OCC (1 txn)", 80, 100); o > best1 {
			best1 = o
		}
		if cHi < 0.7*best1 {
			errs = append(errs, fmt.Sprintf("at 80-100%% distributed: Chiller %.0f below 70%% of best 1-txn baseline %.0f", cHi, best1))
		}
		return errs, nil
	})
}

func TestAblationReorderShapes(t *testing.T) {
	opt := testOptions()
	retryShapes(t, "Ablation A1", func() ([]string, error) {
		a1, err := AblationReorderOnly(4, opt)
		if err != nil {
			return nil, err
		}
		base, _ := a1.Get("throughput", 1)
		full, _ := a1.Get("throughput", 3)
		if full <= base {
			return []string{fmt.Sprintf("full Chiller %.0f not above 2PL/hash baseline %.0f", full, base)}, nil
		}
		return nil, nil
	})
}

func TestAblationLatency(t *testing.T) {
	opt := testOptions()
	fig, err := AblationLatency(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Fprint(&buf)
	t.Logf("\n%s", buf.String())
	// At high latency Chiller must beat 2PL decisively.
	c100, _ := fig.Get(string(EngineChiller), 100)
	p100, _ := fig.Get(string(Engine2PL), 100)
	if c100 <= p100 {
		t.Errorf("at 100µs latency Chiller %.0f <= 2PL %.0f", c100, p100)
	}
}

// TestFigure10FsyncShapes runs the durability sweep at a reduced point
// count and pins its two qualitative claims: logging is not free (the
// fsync series sits below no-WAL) but group commit keeps it a bounded
// constant factor rather than a collapse.
func TestFigure10FsyncShapes(t *testing.T) {
	opt := testOptions()
	retryShapes(t, "Figure 10 fsync", func() ([]string, error) {
		fig, err := Figure10Fsync(opt)
		if err != nil {
			return nil, err
		}
		avg := func(label string) float64 {
			sum, n := 0.0, 0
			for _, x := range []float64{0, 25, 50, 75, 100} {
				if y, ok := fig.Get(label, x); ok {
					sum += y
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
		none, nosync, sync := avg(FsyncNone), avg(FsyncNoSync), avg(FsyncSync)
		t.Logf("fsync sweep means: none %.0f, nosync %.0f, sync %.0f txns/s", none, nosync, sync)
		var errs []string
		if none == 0 || nosync == 0 || sync == 0 {
			return nil, fmt.Errorf("empty series: none %.0f nosync %.0f sync %.0f", none, nosync, sync)
		}
		// Group commit must keep full durability within a bounded constant
		// factor of the no-WAL baseline — a collapse past 8× means acks are
		// serializing on the flush path instead of riding the async tails
		// (a per-commit fsync on this workload would sit well over 20×
		// down). Measured cost on a plain filesystem is ~5×; the rest is
		// noise headroom.
		if sync < none/8 {
			errs = append(errs, fmt.Sprintf("fsync throughput %.0f below an eighth of no-WAL %.0f", sync, none))
		}
		// And skipping only the syscall must not cost more than the
		// syscall: nosync sits between the two (with noise headroom).
		if nosync < sync*0.8 {
			errs = append(errs, fmt.Sprintf("nosync %.0f below fsync %.0f", nosync, sync))
		}
		return errs, nil
	})
}

// TestMVCCReadHeavyShapes is the throughput half of
// TestMVCCReadHeavyAcceptance: MVCC-on must beat MVCC-off by ≥1.5×. The
// paper-shaped configuration (remote round trips + hot-key lock
// conflicts on the locking path, none of either on the snapshot path)
// puts the real gap well above that; the rest is noise headroom.
func TestMVCCReadHeavyShapes(t *testing.T) {
	opt, parts, outstanding := readHeavyAcceptanceOptions()
	retryShapes(t, "MVCC read-heavy", func() ([]string, error) {
		off, err := runReadHeavy(opt, parts, outstanding, false)
		if err != nil {
			return nil, err
		}
		on, err := runReadHeavy(opt, parts, outstanding, true)
		if err != nil {
			return nil, err
		}
		t.Logf("MVCC off: %.0f txns/s  MVCC on: %.0f txns/s", off.Throughput(), on.Throughput())
		if on.Throughput() < 1.5*off.Throughput() {
			return []string{fmt.Sprintf("MVCC-on %.0f txns/s < 1.5× MVCC-off %.0f txns/s",
				on.Throughput(), off.Throughput())}, nil
		}
		return nil, nil
	})
}
