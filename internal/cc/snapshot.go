package cc

import (
	"context"

	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/txn"
)

// snapStaleRetries bounds how many times one request re-takes a fresher
// snapshot after AbortStaleRead (a node's retention watermark passed the
// timestamp mid-read — recovery raising it is the only cause, so more
// than a couple of collisions means something is deeply wrong).
const snapStaleRetries = 3

// runSnapshot is the snapshot policy over Txn, which Begin gives a
// read-only procedure when MVCC is on: it runs the procedure's Rounds at
// the commit clock's stable watermark, takes no lock anywhere — so it
// cannot conflict-abort, and an abort has nothing to release — and
// samples no access set. An attempt that fails stale retries at a
// fresher snapshot.
func runSnapshot(ctx context.Context, n *server.Node, req *txn.Request, proc *txn.Procedure) txn.Result {
	for attempt := 0; ; attempt++ {
		t := NewTxn(n, req, proc)
		t.sample, t.TS = false, n.Clock().Stable()
		var res txn.Result
		if reason := t.Rounds(ctx, n, proc, req.Args, server.KindSnapRead); reason != txn.AbortNone {
			res = t.Abort(n, reason)
		} else {
			res = txn.Result{Committed: true, Reads: t.Reads, Distributed: t.Distributed()}
		}
		t.Release()
		if res.Reason != txn.AbortStaleRead || attempt == snapStaleRetries {
			return res
		}
	}
}
