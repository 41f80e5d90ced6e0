package server

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/chillerdb/chiller/internal/transport"
)

// A handoff flush reaches every stream target it can: a partitioned
// target fails alone, named in the joined error, and the target after it
// still flushes.
func TestFlushStreamsJoinsPerTargetErrors(t *testing.T) {
	nodes, spy := waveCluster(t, "simfab", 3)
	targets := nodes[0].dir.Topology().StreamTargets(0)
	if len(targets) != 2 {
		t.Fatalf("partition 0 streams to %v, want two replicas", targets)
	}
	cut, healthy := targets[0], targets[1]
	flushed := map[transport.NodeID]*atomic.Int64{}
	for _, id := range targets {
		n, count := nodes[id], new(atomic.Int64)
		flushed[id] = count
		n.Endpoint().HandleAsync(VerbHandoffFlush, func(from transport.NodeID, req []byte, reply func([]byte, error)) {
			count.Add(1)
			n.handleHandoffFlush(from, req, reply)
		})
	}
	faults := transport.NewFaults(nil)
	spy.Endpoint = faults.Wrap(spy.Endpoint)
	faults.Partition(0, cut)

	err := nodes[0].FlushStreams(0, healthy, false)
	if !errors.Is(err, transport.ErrUnreachable) || !strings.Contains(err.Error(), fmt.Sprintf("flush at node %d:", cut)) {
		t.Fatalf("FlushStreams = %v, want an unreachable failure naming node %d", err, cut)
	}
	if strings.Contains(err.Error(), fmt.Sprintf("flush at node %d:", healthy)) {
		t.Fatalf("FlushStreams = %v, names node %d, which is reachable", err, healthy)
	}
	if c, h := flushed[cut].Load(), flushed[healthy].Load(); c != 0 || h != 1 {
		t.Fatalf("flushes served: partitioned node %d %d, healthy node %d %d; want 0 and 1", cut, c, healthy, h)
	}
}
