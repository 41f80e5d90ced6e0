package cluster

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/chillerdb/chiller/internal/storage"
)

// Loader is the initial-data surface every workload loads through
// (deploy.Cluster routes a record by the directory to its primary and
// every replica; deploy.Node keeps the records of the partitions it
// holds). Create every table before the first LoadRecord. LoadRecord is
// safe for concurrent use on distinct keys, which is what lets
// LoadSlices spread a loader across the cores.
type Loader interface {
	CreateTable(id storage.TableID, buckets int)
	LoadRecord(table storage.TableID, key storage.Key, value []byte) error
}

// LoadFunc loads one record; LoadSlices hands one to every slice.
type LoadFunc func(table storage.TableID, key storage.Key, value []byte) error

// errStopped ends a slice's remaining records once another slice failed.
var errStopped = errors.New("cluster: load stopped")

// LoadSlices runs slice(i, load) for every i in [0, slices) on
// min(slices, GOMAXPROCS) goroutines, the caller's among them, and
// returns once all have finished. Slices must write disjoint keys; each
// record goes through l.LoadRecord unchanged, so routing, replication
// and the yield to recovered keys are the Loader's. The first error is
// returned: once a LoadRecord has failed, every other slice's next
// record fails without reaching the Loader, and no slice starts.
//
// Each goroutine runs a contiguous run of slices, so the slices running
// at once are as far apart as the count allows. Neighbouring slices
// (warehouses, key ranges) tend to share a partition or a replica node,
// and two goroutines writing one node's table contend for its locks and
// cache lines: on a 2-core host, TPC-C's four warehouses at replication
// 2 load in about half the serial time this way, against a fifth less
// when each goroutine takes the next free slice.
func LoadSlices(l Loader, slices int, slice func(i int, load LoadFunc) error) error {
	var (
		stopped atomic.Bool
		once    sync.Once
		first   error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stopped.Store(true)
	}
	load := func(table storage.TableID, key storage.Key, value []byte) error {
		if stopped.Load() {
			return errStopped
		}
		err := l.LoadRecord(table, key, value)
		if err != nil {
			fail(err)
		}
		return err
	}
	workers := min(slices, runtime.GOMAXPROCS(0))
	run := func(w int) {
		for i := w * slices / workers; i < (w+1)*slices/workers && !stopped.Load(); i++ {
			if err := slice(i, load); err != nil {
				fail(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	if workers > 0 {
		run(0)
	}
	wg.Wait()
	return first
}
