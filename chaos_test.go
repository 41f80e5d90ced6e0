package chiller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Chaos tests at the public API boundary: injected faults must surface
// as the typed error taxonomy (naming the failed node), ExecuteWithRetry
// must ride out a partition window, and the history recorder must
// capture the traffic.

// A network partition between the coordinator's partition and the
// destination's partition makes a cross-partition transfer fail with
// ErrUnreachable (ErrInternal-family, retryable, node-naming detail) —
// and ExecuteWithRetry, left running, commits as soon as the partition
// heals.
func TestPartitionHealExecuteWithRetry(t *testing.T) {
	rec := NewHistoryRecorder()
	db := openBank(t, 2, WithReplication(1), WithHistoryRecorder(rec))
	ctx := context.Background()

	// Key 10 lives on partition 0, key 150 on partition 1 (range
	// partitioner, 100 keys per partition). With no FaultPlan installed,
	// a partition cuts EVERY verb on the link, so quiesce the async
	// commit tails of prior transactions first (Get drains them): an
	// in-flight post-commit wave hitting a blunt partition is an engine
	// invariant violation, not the scenario under test.
	if _, err := db.Get(tAccounts, 0); err != nil {
		t.Fatal(err)
	}
	db.c.Faults.Partition(0, 1)

	// Single-shot Execute during the window: the typed taxonomy.
	_, err := db.Execute(ctx, "bank.transfer", 10, 150, 25)
	if err == nil {
		t.Fatal("cross-partition transfer committed through a partition")
	}
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("ErrUnreachable must stay in the ErrInternal family, got %v", err)
	}
	if !errors.Is(err, ErrAborted) || !Retryable(err) {
		t.Fatalf("unreachable abort must be an ErrAborted and retryable: %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || !strings.Contains(ae.Detail, "node") {
		t.Fatalf("abort detail must name the destination node, got %+v", err)
	}

	// ExecuteWithRetry in flight across the heal: it must keep retrying
	// through the window and commit once the link is back.
	done := make(chan error, 1)
	go func() {
		_, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 10, 150, 25)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("retry loop finished during the partition window: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	db.c.Faults.Heal(0, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("transfer must commit after heal, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transfer did not commit after heal")
	}

	// Money conserved, and the recorder saw every attempt.
	src, _ := db.Get(tAccounts, 10)
	dst, _ := db.Get(tAccounts, 150)
	if decBal(src)+decBal(dst) != 2000 {
		t.Fatalf("conservation violated: %d + %d", decBal(src), decBal(dst))
	}
	if rec.Len() < 3 { // the single shot + at least one failed retry + the commit
		t.Fatalf("recorder saw only %d attempts", rec.Len())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"reason": "unreachable"`) {
		t.Fatalf("history JSON must carry the unreachable aborts:\n%.400s", buf.String())
	}
}

// A participant failing its commit verb surfaces as a plain internal
// (non-retryable — locks may be wedged) abort naming the node.
func TestFailedCommitVerbSurfacesTyped(t *testing.T) {
	db := openBank(t, 2, WithReplication(1), WithEngine(Engine2PL))
	db.nodeList()[1].FaultInjector = func(verb string, _ uint64) error {
		return fmt.Errorf("injected %s failure", verb)
	}
	_, err := db.Execute(context.Background(), "bank.transfer", 10, 150, 25)
	if err == nil {
		t.Fatal("commit-verb failure went unnoticed")
	}
	if !errors.Is(err, ErrInternal) || errors.Is(err, ErrUnreachable) {
		t.Fatalf("commit failure must be internal and not retryable-unreachable: %v", err)
	}
	if Retryable(err) {
		t.Fatalf("post-prepare commit failure must not be retryable: %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || !strings.Contains(ae.Detail, "node 1") {
		t.Fatalf("detail must name the failed participant, got %+v", err)
	}
}
