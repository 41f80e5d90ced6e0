// Command chiller-bench regenerates the tables and figures of the
// paper's evaluation (§7) on the simulated cluster. See docs/FIGURES.md
// for the experiment index, the JSON output schema, and the expected
// qualitative shapes.
//
// Usage:
//
//	chiller-bench -exp list                 # name every experiment
//	chiller-bench -exp fig7                 # one experiment
//	chiller-bench -exp all -duration 2s     # everything, longer windows
//	chiller-bench -exp fig10 -json out.json # machine-readable results
//	chiller-bench -exp fig9lanes -lanes 4   # intra-node lane scaling
//
//	# Figure 10 against a live multi-process cluster (see cmd/chiller-node):
//	chiller-bench -exp fig10 -transport tcp -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment name, `all`, or `list` to print the index")
		duration   = flag.Duration("duration", 800*time.Millisecond, "measurement window per data point")
		latency    = flag.Duration("latency", 5*time.Microsecond, "one-way network latency")
		replicas   = flag.Int("replication", 2, "replication degree (1 = none)")
		seed       = flag.Int64("seed", 42, "random seed")
		lanes      = flag.Int("lanes", 0, "execution lanes per node (0 = derive from host CPUs)")
		products   = flag.Int("products", 20000, "Instacart catalogue size")
		traceTxns  = flag.Int("trace", 4000, "partitioner trace size (transactions)")
		maxParts   = flag.Int("max-partitions", 8, "Figure 7/8 partition sweep upper bound")
		conc       = flag.Int("concurrency", 4, "Instacart clients per partition")
		warehouses = flag.Int("warehouses", 8, "TPC-C warehouses (= partitions)")
		customers  = flag.Int("customers", 300, "TPC-C customers per district")
		items      = flag.Int("items", 2000, "TPC-C items per warehouse")
		maxConc    = flag.Int("max-concurrency", 8, "Figure 9 concurrency sweep upper bound")
		fsync      = flag.String("fsync-policy", "", "comma-separated WAL policies for fig10fsync: none, nosync, sync (empty = all three)")
		jsonOut    = flag.String("json", "", "also write all figures as JSON to this file (- for stdout)")
		transport  = flag.String("transport", bench.TransportSim, "fabric to bench over: simnet (in-process simulation) or tcp (join a chiller-node cluster; requires -peers)")
		peersFlag  = flag.String("peers", "", "comma-separated chiller-node addresses, index = node ID (tcp transport only)")
	)
	flag.Parse()

	if *exp == "list" {
		for _, e := range bench.Experiments {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}
	if *exp != "all" {
		found := false
		for _, e := range bench.Experiments {
			if e.Name == *exp {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; run -exp list for the index\n", *exp)
			os.Exit(2)
		}
	}

	opt := bench.Options{
		Duration:       *duration,
		Latency:        *latency,
		Replication:    *replicas,
		Seed:           *seed,
		Lanes:          *lanes,
		Products:       *products,
		TraceTxns:      *traceTxns,
		MaxPartitions:  *maxParts,
		Concurrency:    *conc,
		Warehouses:     *warehouses,
		Customers:      *customers,
		Items:          *items,
		MaxConcurrency: *maxConc,
	}
	if *fsync != "" {
		opt.FsyncPolicies = strings.Split(*fsync, ",")
	}

	var figures []*bench.Figure

	// TCP mode joins a live chiller-node cluster instead of assembling a
	// simulated one. Only the Figure 10 sweep is defined over it: the
	// other experiments rebuild differently-shaped clusters per data
	// point, which a fixed set of node processes cannot provide.
	if *transport == bench.TransportTCP {
		if *peersFlag == "" {
			fmt.Fprintln(os.Stderr, "-transport=tcp requires -peers (comma-separated chiller-node addresses)")
			os.Exit(2)
		}
		if *exp != "fig10" && *exp != "all" {
			fmt.Fprintf(os.Stderr, "experiment %q is simnet-only; -transport=tcp supports -exp fig10\n", *exp)
			os.Exit(2)
		}
		peers := strings.Split(*peersFlag, ",")
		start := time.Now()
		fmt.Printf("=== fig10 (tcp) — Figure 10 sweep against %d chiller-node processes ===\n", len(peers))
		fig, err := bench.Figure10Remote(opt, peers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig10 (tcp) failed: %v\n", err)
			os.Exit(1)
		}
		fig.Fprint(os.Stdout)
		figures = append(figures, fig)
		fmt.Printf("(fig10 tcp in %v)\n\n", time.Since(start).Round(time.Millisecond))
		writeJSON(*jsonOut, figures)
		return
	} else if *transport != bench.TransportSim {
		fmt.Fprintf(os.Stderr, "unknown transport %q (want %s or %s)\n", *transport, bench.TransportSim, bench.TransportTCP)
		os.Exit(2)
	}

	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		start := time.Now()
		fmt.Printf("=== %s — %s ===\n", e.Name, e.Desc)
		figs, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, f := range figs {
			f.Fprint(os.Stdout)
			figures = append(figures, f)
		}
		fmt.Printf("(%s in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	writeJSON(*jsonOut, figures)
}

// writeJSON emits the collected figures to the -json destination ("" =
// disabled, "-" = stdout).
func writeJSON(dest string, figures []*bench.Figure) {
	if dest == "" {
		return
	}
	out := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "json output: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(figures); err != nil {
		fmt.Fprintf(os.Stderr, "json encode: %v\n", err)
		os.Exit(1)
	}
}
