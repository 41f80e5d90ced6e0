// Benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation (§7), plus microbenchmarks for the substrates.
//
// Regenerate everything with
//
//	go test -bench=. -benchmem
//
// Figure benches print the same rows/series the paper plots and report
// the headline number via b.ReportMetric. Absolute values depend on the
// simulated network (see README.md); the shapes are what reproduce.
package chiller_test

import (
	"context"
	"os"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/metis"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/workload/instacart"
)

// benchOptions sizes the figure sweeps for the bench harness: larger than
// the unit-test options, still minutes-not-hours.
func benchOptions() bench.Options {
	opt := bench.DefaultOptions()
	opt.Duration = 400 * time.Millisecond
	return opt
}

// --- E1: Figure 7 ---

func BenchmarkFigure7(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.Figure7(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
		if y, ok := fig.Get(bench.SchemeChiller, float64(opt.MaxPartitions)); ok {
			b.ReportMetric(y, "chiller-txns/sec")
		}
	}
}

// --- E2: Figure 8 ---

func BenchmarkFigure8(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.Figure8(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
		if y, ok := fig.Get(bench.SchemeSchism, 2); ok {
			b.ReportMetric(y, "schism-ratio@2")
		}
	}
}

// --- E3: §7.2.2 lookup table sizes ---

func BenchmarkLookupTableSize(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.LookupTableSizes(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
		s, _ := fig.Get(bench.SchemeSchism, 4)
		c, _ := fig.Get(bench.SchemeChiller, 4)
		if c > 0 {
			b.ReportMetric(s/c, "schism/chiller-entries")
		}
	}
}

// --- E4/E5/E6: Figure 9a-c ---

func BenchmarkFigure9a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		thr, _, _, err := bench.Figure9(opt)
		if err != nil {
			b.Fatal(err)
		}
		thr.Fprint(os.Stdout)
		if y, ok := thr.Get("Chiller", float64(opt.MaxConcurrency)); ok {
			b.ReportMetric(y, "chiller-txns/sec")
		}
	}
}

func BenchmarkFigure9b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		_, abr, _, err := bench.Figure9(opt)
		if err != nil {
			b.Fatal(err)
		}
		abr.Fprint(os.Stdout)
		if y, ok := abr.Get("Chiller", float64(opt.MaxConcurrency)); ok {
			b.ReportMetric(y, "chiller-abort-rate")
		}
	}
}

func BenchmarkFigure9c(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		_, _, brk, err := bench.Figure9(opt)
		if err != nil {
			b.Fatal(err)
		}
		brk.Fprint(os.Stdout)
		if y, ok := brk.Get("Payment", float64(opt.MaxConcurrency)); ok {
			b.ReportMetric(y, "2pl-payment-abort-rate")
		}
	}
}

// --- E7: Figure 10 ---

func BenchmarkFigure10(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.Figure10(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
		c0, _ := fig.Get("Chiller (5 txn)", 0)
		c100, _ := fig.Get("Chiller (5 txn)", 100)
		if c0 > 0 {
			b.ReportMetric(c100/c0, "chiller-retention@100%")
		}
	}
}

// --- Ablations ---

func BenchmarkAblationReorderOnly(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationReorderOnly(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
	}
}

func BenchmarkAblationMinWeight(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationMinEdgeWeight(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
	}
}

func BenchmarkAblationSampling(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationSamplingRate(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
	}
}

// --- substrate microbenchmarks ---

func BenchmarkLockWordUncontended(b *testing.B) {
	var l storage.LockWord
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.TryLock(storage.LockExclusive)
		l.Unlock(storage.LockExclusive)
	}
}

func BenchmarkBucketGet(b *testing.B) {
	s := storage.NewStore()
	tbl := s.CreateTable(1, 1024)
	for k := storage.Key(0); k < 1000; k++ {
		_ = tbl.Bucket(k).Insert(k, make([]byte, 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := storage.Key(i % 1000)
		_, _, _ = tbl.Bucket(k).Get(k)
	}
}

func BenchmarkSimnetRPC(b *testing.B) {
	n := simfab.New(simfab.Config{Latency: 0})
	defer n.Close()
	a := n.Endpoint(1)
	c := n.Endpoint(2)
	c.Handle("echo", func(_ simfab.NodeID, req []byte) ([]byte, error) { return req, nil })
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(2, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetisPartition(b *testing.B) {
	rng := testutil.Rand(b, 1)
	builder := metis.NewBuilder(5000)
	for i := 0; i < 20000; i++ {
		builder.AddEdge(rng.Intn(5000), rng.Intn(5000), int64(1+rng.Intn(10)))
	}
	g := builder.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Partition(g, 8, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContentionLikelihood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.ContentionLikelihood(float64(i%10)/3, float64(i%7)/2)
	}
}

// Engine per-transaction cost on a small cluster, one benchmark per
// engine, using the bank transfer workload.
func benchmarkEngineTxn(b *testing.B, kind bench.EngineKind) {
	bank := &bench.Bank{AccountsPerPartition: 1000, RemoteProb: 0.2}
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions: 4,
		Latency:    time.Microsecond,
		Seed:       1,
	}, cluster.RangePartitioner{
		N:      4,
		MaxKey: map[storage.TableID]storage.Key{bench.BankTable: 4000},
	})
	defer c.Close()
	if err := bench.SetupBank(c, bank, true); err != nil {
		b.Fatal(err)
	}
	bank.MarkCelebritiesHot(c)
	eng := c.Engine(kind, 0)
	rng := testutil.Rand(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := bank.Next(0, rng)
		res := eng.Run(context.Background(), req)
		if !res.Committed && res.Reason != txn.AbortLockConflict {
			b.Fatalf("unexpected abort: %v", res.Reason)
		}
	}
}

func BenchmarkTxn2PL(b *testing.B)     { benchmarkEngineTxn(b, bench.Engine2PL) }
func BenchmarkTxnOCC(b *testing.B)     { benchmarkEngineTxn(b, bench.EngineOCC) }
func BenchmarkTxnChiller(b *testing.B) { benchmarkEngineTxn(b, bench.EngineChiller) }

func BenchmarkInstacartBasketGen(b *testing.B) {
	w := instacart.NewWorkload(instacart.Config{Products: 50000, Partitions: 8})
	rng := testutil.Rand(b, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.Basket(rng)
	}
}

func BenchmarkAblationLatency(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationLatency(opt)
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(os.Stdout)
	}
}
