// Command benchtrip is the throughput-regression tripwire: it compares
// a fresh chiller-bench figure JSON against the committed baseline
// (BENCH_churn.json) and fails when any series the baseline knows has
// gone missing, reports a non-positive throughput point, or has lost
// more than the tolerated fraction of its baseline mean throughput.
//
// Absolute simulation throughput varies a lot across machines, so the
// default tolerance is deliberately generous (a series must retain at
// least 40% of its baseline mean): the tripwire catches collapses —
// an engine accidentally serialized, a code path that stopped
// committing — not percent-level drift. Gains are never an error.
//
// Usage: go run ./scripts/benchtrip [-tolerance 0.6] baseline.json run.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type point struct {
	X float64
	Y float64
}

type series struct {
	Label  string
	Points []point
}

type figure struct {
	Name   string
	Series []series
}

func main() {
	tolerance := flag.Float64("tolerance", 0.6, "tolerated fractional drop of a series' mean throughput vs baseline")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchtrip [-tolerance f] baseline.json run.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrip:", err)
		os.Exit(2)
	}
	run, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrip:", err)
		os.Exit(2)
	}

	failures := 0
	for figName, baseSeries := range base {
		runSeries, ok := run[figName]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtrip: figure %q missing from run\n", figName)
			failures++
			continue
		}
		for label, baseMean := range baseSeries {
			runMean, ok := runSeries[label]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtrip: %s: series %q missing from run\n", figName, label)
				failures++
				continue
			}
			if runMean <= 0 {
				fmt.Fprintf(os.Stderr, "benchtrip: %s: series %q has non-positive mean throughput %.1f\n",
					figName, label, runMean)
				failures++
				continue
			}
			floor := baseMean * (1 - *tolerance)
			if runMean < floor {
				fmt.Fprintf(os.Stderr,
					"benchtrip: %s: series %q regressed: mean %.0f txns/s < floor %.0f (baseline %.0f, tolerance %.0f%%)\n",
					figName, label, runMean, floor, baseMean, *tolerance*100)
				failures++
				continue
			}
			fmt.Printf("benchtrip: %s: %q ok (mean %.0f vs baseline %.0f)\n", figName, label, runMean, baseMean)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchtrip: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchtrip: all series within tolerance")
}

// load reads a figure JSON and reduces it to figure → series label →
// mean Y. Points with zero throughput still count toward the mean (a
// collapsed cell should drag its series under the floor, not vanish).
func load(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var figs []figure
	if err := json.Unmarshal(raw, &figs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(figs))
	for _, f := range figs {
		m := make(map[string]float64, len(f.Series))
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			var sum float64
			for _, p := range s.Points {
				sum += p.Y
			}
			m[s.Label] = sum / float64(len(s.Points))
		}
		out[f.Name] = m
	}
	return out, nil
}
