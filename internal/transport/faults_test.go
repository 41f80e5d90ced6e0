package transport_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
)

// The fault layer's contract, held on both fabrics: every test runs once
// over a simulated pair and once over a loopback-TCP pair, with the same
// injector wrapped around each.

type pairFunc func(t *testing.T) (a, b transport.Endpoint)

// simPair is nodes 1 and 2 of a fresh simulated fabric.
func simPair(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	n := simfab.New(simfab.Config{Latency: time.Microsecond})
	t.Cleanup(n.Close)
	return n.Endpoint(1), n.Endpoint(2)
}

// tcpPair is nodes 1 and 2 as two loopback tcpnet fabrics.
func tcpPair(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	a, err := tcpnet.New(tcpnet.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcpnet.New(tcpnet.Config{ID: 2})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeers(map[transport.NodeID]string{2: b.Addr()})
	b.SetPeers(map[transport.NodeID]string{1: a.Addr()})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// eachFabric runs test once per fabric, as a subtest named after it.
func eachFabric(t *testing.T, test func(t *testing.T, pair pairFunc)) {
	for _, fab := range []struct {
		name string
		pair pairFunc
	}{{"simfab", simPair}, {"tcpnet", tcpPair}} {
		t.Run(fab.name, func(t *testing.T) { test(t, fab.pair) })
	}
}

func echo(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil }

// echoPair wraps a fresh pair in an injector for plan; both nodes serve
// "echo" as a call and a ring.
func echoPair(t *testing.T, pair pairFunc, plan *transport.FaultPlan) (*transport.Faults, transport.Endpoint, transport.Endpoint) {
	t.Helper()
	f := transport.NewFaults(plan)
	ra, rb := pair(t)
	for _, ep := range []transport.Endpoint{ra, rb} {
		ep.Handle("echo", echo)
		ep.HandleOneSided("echo", echo)
	}
	return f, f.Wrap(ra), f.Wrap(rb)
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		f, a, b := echoPair(t, pair, nil)
		if _, err := a.Call(2, "echo", []byte("x")); err != nil {
			t.Fatalf("pre-partition call: %v", err)
		}
		f.Partition(1, 2)
		if !f.Partitioned(1, 2) || !f.Partitioned(2, 1) {
			t.Fatal("Partition must cut both directions")
		}
		_, err := a.Call(2, "echo", []byte("x"))
		if !errors.Is(err, transport.ErrPartitioned) || !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("want ErrPartitioned wrapping ErrUnreachable, got %v", err)
		}
		f.Heal(1, 2)
		if _, err := a.Call(2, "echo", []byte("x")); err != nil {
			t.Fatalf("post-heal call: %v", err)
		}

		f.Partition(1, 2)
		f.HealAll()
		if _, err := a.Call(2, "echo", []byte("x")); err != nil {
			t.Fatalf("post-HealAll call: %v", err)
		}

		// A crash is the victim cut from every other node: traffic fails
		// both ways, a partition window over the same link nests inside
		// the cut, and healing the cut revives the node.
		f.Partition(2, 1)
		f.Partition(1, 2)
		f.Heal(1, 2)
		if _, err := a.Call(2, "echo", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("a crashed node must refuse traffic, got %v", err)
		}
		if _, err := b.Call(1, "echo", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("a crashed node must not send, got %v", err)
		}
		f.Heal(2, 1)
		if _, err := b.Call(1, "echo", nil); err != nil {
			t.Fatalf("post-restart call: %v", err)
		}
	})
}

// With a FaultPlan installed, partitions block only Droppable verbs:
// the protected control plane keeps flowing through the window.
func TestPartitionHonorsDroppableFilter(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		f, a, b := echoPair(t, pair, &transport.FaultPlan{Droppable: func(m string) bool { return m == "echo" }})
		b.Handle("protected", echo)

		f.Partition(1, 2)
		if _, err := a.Call(2, "echo", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("droppable verb must be blocked, got %v", err)
		}
		if _, err := a.Call(2, "protected", nil); err != nil {
			t.Fatalf("protected verb must pass through the partition, got %v", err)
		}
	})
}

// Drop dice: deterministic per (seed, link message sequence), drop only
// droppable verbs, and never drop loopback sends.
func TestDropDiceDeterministicAndFiltered(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		run := func(seed int64) (drops int) {
			_, a, _ := echoPair(t, pair, &transport.FaultPlan{
				Seed:      seed,
				DropProb:  0.5,
				Droppable: func(m string) bool { return m == "echo" },
			})
			for i := 0; i < 200; i++ {
				if _, err := a.Call(2, "echo", nil); err != nil {
					if !errors.Is(err, transport.ErrInjectedDrop) || !errors.Is(err, transport.ErrUnreachable) {
						t.Fatalf("drop must be ErrInjectedDrop/ErrUnreachable, got %v", err)
					}
					drops++
				}
			}
			// Loopback traffic is never dropped.
			for i := 0; i < 50; i++ {
				if _, err := a.Call(1, "echo", nil); err != nil {
					t.Fatalf("loopback dropped: %v", err)
				}
			}
			return drops
		}
		d1, d2 := run(99), run(99)
		if d1 != d2 {
			t.Fatalf("same seed must roll the same drops: %d != %d", d1, d2)
		}
		if d1 < 50 || d1 > 150 {
			t.Fatalf("drop rate implausible for p=0.5: %d/200", d1)
		}
		if d3 := run(100); d3 == d1 {
			t.Logf("different seeds coincided (%d) — possible but unlikely", d3)
		}
	})
}

// Protected verbs are never dropped even with DropProb 1.
func TestDropNeverTouchesProtectedVerbs(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		_, a, b := echoPair(t, pair, &transport.FaultPlan{
			DropProb:  1,
			Droppable: func(m string) bool { return m != "safe" },
		})
		b.Handle("safe", echo)
		if _, err := a.Call(2, "echo", nil); !errors.Is(err, transport.ErrInjectedDrop) {
			t.Fatalf("droppable verb with p=1 must drop, got %v", err)
		}
		for i := 0; i < 50; i++ {
			if _, err := a.Call(2, "safe", nil); err != nil {
				t.Fatalf("protected verb dropped: %v", err)
			}
		}
	})
}

// Delay spikes stretch the observed round trip without losing messages:
// the sender waits the spike out before the request leaves.
func TestDelaySpikes(t *testing.T) {
	const spike = 2 * time.Millisecond
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		_, a, _ := echoPair(t, pair, &transport.FaultPlan{DelayProb: 1, DelaySpike: spike})
		start := time.Now()
		if _, err := a.Call(2, "echo", nil); err != nil {
			t.Fatalf("spiked call failed: %v", err)
		}
		if rtt := time.Since(start); rtt < spike {
			t.Fatalf("round trip %v shorter than the injected spike %v", rtt, spike)
		}
		start = time.Now()
		p, err := a.GoOneSided(2, "echo", nil, 1)
		if err != nil {
			t.Fatalf("spiked ring failed: %v", err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatalf("spiked ring completion: %v", err)
		}
		if rtt := time.Since(start); rtt < spike {
			t.Fatalf("ring round trip %v shorter than the injected spike %v", rtt, spike)
		}
	})
}

// One-sided doorbell rings respect the same fault machinery.
func TestOneSidedRingFaults(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		f, a, b := echoPair(t, pair, &transport.FaultPlan{DropProb: 1, Droppable: func(m string) bool { return m == "ring" }})
		b.HandleOneSided("ring", echo)
		b.HandleOneSided("tail", echo)

		if _, err := a.GoOneSided(2, "ring", nil, 1); !errors.Is(err, transport.ErrInjectedDrop) {
			t.Fatalf("droppable ring must drop, got %v", err)
		}
		p, err := a.GoOneSided(2, "tail", nil, 1)
		if err != nil {
			t.Fatalf("protected ring dropped: %v", err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatalf("protected ring completion: %v", err)
		}

		f.Partition(1, 2)
		if _, err := a.GoOneSided(2, "ring", nil, 1); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("partition must block droppable rings, got %v", err)
		}
		if _, err := a.CallOneSided(2, "ring", nil, 1); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("partition must block a synchronous ring, got %v", err)
		}
		f.HealAll()
	})
}

// A dropped request had no remote effect: a dropped call, one-way send
// or ring never runs the destination's handler. That is what lets a
// coordinator abort and retry after a drop without reasoning about what
// the destination did.
func TestDropHasNoRemoteEffect(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		f := transport.NewFaults(&transport.FaultPlan{DropProb: 1})
		ra, rb := pair(t)
		var served atomic.Int64
		count := func(transport.NodeID, []byte) ([]byte, error) { served.Add(1); return nil, nil }
		rb.Handle("m", count)
		rb.HandleOneSided("m", count)
		a := f.Wrap(ra)

		if _, err := a.Call(2, "m", nil); !errors.Is(err, transport.ErrInjectedDrop) {
			t.Fatalf("call: %v", err)
		}
		if err := a.Send(2, "m", nil); !errors.Is(err, transport.ErrInjectedDrop) {
			t.Fatalf("send: %v", err)
		}
		if _, err := a.GoOneSided(2, "m", nil, 1); !errors.Is(err, transport.ErrInjectedDrop) {
			t.Fatalf("ring: %v", err)
		}
		// An unwrapped call on the same link starts its handler after
		// anything sent before it (per-link FIFO), so it is the only one
		// the counter may have seen.
		if _, err := ra.Call(2, "m", nil); err != nil {
			t.Fatal(err)
		}
		if n := served.Load(); n != 1 {
			t.Fatalf("destination handler ran %d times, want once (the undropped call)", n)
		}
	})
}

// A wrapped endpoint is a PeerDirectory exactly when its fabric is one,
// and the directory it exposes is the fabric's: without that, a TCP
// node's handoff would skip the address-book broadcast.
func TestWrapKeepsPeerDirectory(t *testing.T) {
	f := transport.NewFaults(nil)
	sim, _ := simPair(t)
	if _, ok := f.Wrap(sim).(transport.PeerDirectory); ok {
		t.Fatal("a wrapped simfab endpoint claims a peer directory")
	}
	tcp, _ := tcpPair(t)
	pd, ok := f.Wrap(tcp).(transport.PeerDirectory)
	if !ok {
		t.Fatal("a wrapped tcpnet endpoint lost its peer directory")
	}
	pd.SetPeers(map[transport.NodeID]string{9: "127.0.0.1:9"})
	if got := tcp.(transport.PeerDirectory).Peers()[9]; got != "127.0.0.1:9" {
		t.Fatalf("peer set through the wrapper reads %q at the fabric", got)
	}
}

// With no plan and no cut, the wrapper costs a send nothing: not one
// allocation more than the bare fabric.
func TestFaultFreeWrapperAllocatesNothing(t *testing.T) {
	raw, b := simPair(t)
	b.HandleOneSided("echo", echo)
	wrapped := transport.NewFaults(nil).Wrap(raw)
	ring := func(ep transport.Endpoint) float64 {
		return testing.AllocsPerRun(1000, func() {
			p, err := ep.GoOneSided(2, "echo", nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait()
		})
	}
	if r, w := ring(raw), ring(wrapped); w > r {
		t.Fatalf("wrapped ring allocates %.1f, bare ring %.1f", w, r)
	}
}
