package storage

import (
	"errors"
	"sync/atomic"
)

// LockWord is the 64-bit lock state embedded in every bucket, laid out so
// that remote engines could manipulate it with a single RDMA CAS as in
// NAM-DB (§6 of the paper): bit 63 is the exclusive bit, bits 0..62 count
// shared holders.
//
// Lock policy is NO_WAIT 2PL: a conflicting request fails immediately and
// the transaction aborts, which rules out deadlock (§3.1).
type LockWord struct {
	v atomic.Uint64
}

const exclusiveBit = uint64(1) << 63

// ErrLockConflict is returned when a NO_WAIT lock request cannot be
// granted immediately.
var ErrLockConflict = errors.New("storage: lock conflict")

// LockMode distinguishes shared (read) from exclusive (write) locks.
type LockMode uint8

const (
	// LockShared is a read lock; compatible with other shared locks.
	LockShared LockMode = iota
	// LockExclusive is a write lock; incompatible with everything.
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockExclusive {
		return "X"
	}
	return "S"
}

// TryLock attempts to acquire the lock in the given mode without waiting.
// It reports whether the lock was granted.
func (l *LockWord) TryLock(mode LockMode) bool {
	for {
		cur := l.v.Load()
		if mode == LockExclusive {
			if cur != 0 {
				return false // any holder blocks X
			}
			if l.v.CompareAndSwap(0, exclusiveBit) {
				return true
			}
			continue
		}
		// Shared: blocked only by an exclusive holder.
		if cur&exclusiveBit != 0 {
			return false
		}
		if l.v.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Upgrade atomically converts a shared lock held by the caller into an
// exclusive lock. It succeeds only when the caller is the sole shared
// holder; otherwise the shared lock is retained and false is returned.
func (l *LockWord) Upgrade() bool {
	return l.v.CompareAndSwap(1, exclusiveBit)
}

// Unlock releases one lock held in the given mode. Unlocking a lock that
// is not held is a programming error and panics: lock accounting bugs in
// a transaction engine must not be silently absorbed.
func (l *LockWord) Unlock(mode LockMode) {
	for {
		cur := l.v.Load()
		if mode == LockExclusive {
			if cur&exclusiveBit == 0 {
				panic("storage: unlock exclusive not held")
			}
			if l.v.CompareAndSwap(cur, cur&^exclusiveBit) {
				return
			}
			continue
		}
		if cur&exclusiveBit != 0 || cur == 0 {
			panic("storage: unlock shared not held")
		}
		if l.v.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// Held reports whether any lock is currently held (racy snapshot; for
// tests and diagnostics).
func (l *LockWord) Held() bool { return l.v.Load() != 0 }

// HeldExclusive reports whether the exclusive bit is set.
func (l *LockWord) HeldExclusive() bool { return l.v.Load()&exclusiveBit != 0 }

// SharedCount returns the current number of shared holders.
func (l *LockWord) SharedCount() int {
	return int(l.v.Load() &^ exclusiveBit)
}
