package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
)

func laneBankCluster(t *testing.T, lanes int, b *Bank) *Cluster {
	t.Helper()
	const partitions = 4
	def := cluster.RangePartitioner{
		N: partitions,
		MaxKey: map[storage.TableID]storage.Key{
			BankTable: storage.Key(partitions * b.AccountsPerPartition),
		},
	}
	c := NewCluster(ClusterConfig{
		Partitions:  partitions,
		Replication: 2,
		Latency:     2 * time.Microsecond,
		Seed:        7,
		Lanes:       lanes,
	}, def)
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	return c
}

// Money conservation over doorbell waves, at one lane (one frame per
// destination) and at four (multi-lane waves coalesce several frames
// per doorbell). The same cluster then serves a 2PL run, so two engines'
// waves hit the same participant state.
func TestBankConservationVerbBatching(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(map[int]string{1: "inline-1-lane", 4: "4-lanes"}[lanes], func(t *testing.T) {
			b := &Bank{AccountsPerPartition: 50, RemoteProb: 0.4, HotProb: 0.2}
			c := laneBankCluster(t, lanes, b)
			defer c.Close()
			b.MarkCelebritiesHot(c)

			before := c.TotalBalance(b)
			m := c.RunN(b, EngineChiller, 150, 11)
			if m.Committed != 4*150 {
				t.Fatalf("committed %d, want 600", m.Committed)
			}
			if after := c.TotalBalance(b); after != before {
				t.Fatalf("balance leak: %d → %d", before, after)
			}

			// Mixed operation: a 2PL run against the same nodes.
			m2 := c.RunN(b, Engine2PL, 100, 13)
			if m2.Committed != 4*100 {
				t.Fatalf("2PL committed %d, want 400", m2.Committed)
			}
			if after := c.TotalBalance(b); after != before {
				t.Fatalf("balance leak after mixed run: %d → %d", before, after)
			}
			if !c.Quiesced() {
				t.Fatal("locks leaked")
			}
			c.Drain()
			if mm := c.VerifyReplicaConsistency(BankTable); mm != 0 {
				t.Fatalf("%d replica mismatches", mm)
			}

			// Doorbells appear in the fabric stats and ring fewer times
			// than the verbs they carry only when waves coalesce
			// (guaranteed at 4 lanes with multi-record outer regions; at 1
			// lane each doorbell may carry a single frame).
			st := c.Net.Stats()
			if st.Doorbells.Load() == 0 {
				t.Fatal("no doorbells rung")
			}
			if st.OneSidedVerbs.Load() < st.Doorbells.Load() {
				t.Fatal("verb count below doorbell count")
			}
		})
	}
}

// The per-verb profiles land in Metrics and in figure JSON with
// percentiles, doorbell traffic included.
func TestVerbProfilesInMetricsAndFigureJSON(t *testing.T) {
	b := &Bank{AccountsPerPartition: 50, RemoteProb: 0.5, HotProb: 0.2}
	c := laneBankCluster(t, 1, b)
	defer c.Close()
	b.MarkCelebritiesHot(c)

	m := c.Run(b, RunConfig{
		Engine:      EngineChiller,
		Concurrency: 2,
		Duration:    150 * time.Millisecond,
		Retry:       true,
		Seed:        3,
	})
	if m.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if len(m.Verbs) == 0 {
		t.Fatal("Metrics.Verbs empty")
	}
	db := m.Verbs[server.KindDoorbell]
	if db == nil || db.Count == 0 {
		t.Fatalf("no doorbell profile: %+v", m.Verbs)
	}
	if db.P50 <= 0 || db.P99 < db.P50 {
		t.Fatalf("doorbell percentiles malformed: p50=%v p99=%v", db.P50, db.P99)
	}
	lr := m.Verbs[server.KindLockRead]
	if lr == nil || lr.Count == 0 || lr.P95 < lr.P50 {
		t.Fatalf("lock-read profile malformed: %+v", lr)
	}

	fig := &Figure{Name: "t"}
	fig.Add("Chiller", 1, m.Throughput())
	fig.AddVerbs("Chiller", m)
	raw, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"doorbell"`, `"lock-read"`, `"P50Micros"`, `"P95Micros"`, `"P99Micros"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("figure JSON missing %s:\n%s", want, raw)
		}
	}
}
