package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of compare, one per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's value b against its base a. A value is
// regressed when it is worse than the base by more than the metric's
// bound, improved when it is better by more than the bound, and
// unresolved when either side was measured on a noisy host.
func judge(def MetricDef, a, b float64, noisy bool) string {
	if noisy {
		return verdictUnresolved
	}
	worse := b - a // how much b is worse than a, in the metric's unit
	if def.Better == "higher" {
		worse = a - b
	}
	limit := def.Bound * a
	if def.Name == failedShare.Name {
		limit = def.Bound // absolute: the base is expected to be 0
	}
	switch {
	case worse > limit:
		return verdictRegressed
	case -worse > limit:
		return verdictImproved
	}
	return verdictOK
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *File) result(workload string) *Result {
	for _, r := range f.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// cmdCompare prints one row per workload and end-to-end metric of two
// result files written by run: both values, their ratio with its base,
// the metric's bound and the verdict. It fails when a row regressed.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare base.json new.json")
	}
	base, err := readFile(args[0])
	if err != nil {
		return err
	}
	next, err := readFile(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("base %s  (%s, %s)\nnew  %s  (%s, %s)\n\n", args[0], base.Provenance.GitCommit, base.Provenance.CPUModel,
		args[1], next.Provenance.GitCommit, next.Provenance.CPUModel)
	fmt.Printf("%-14s %-18s %14s %14s  %-26s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	regressed := 0
	for _, s := range specs {
		a, b := base.result(s.Name), next.result(s.Name)
		if a == nil || b == nil {
			continue
		}
		for _, def := range runMetrics {
			va, vb := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f (base %.4g)", vb/va, va)
			}
			bound := fmt.Sprintf("%.1f%%", 100*def.Bound)
			if def.Name == failedShare.Name {
				bound = fmt.Sprintf("%g", def.Bound)
			}
			v := judge(def, va, vb, a.Noise.Noisy || b.Noise.Noisy)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f  %-26s %7s  %s\n", s.Name, def.Name, va, vb, ratio, bound, v)
		}
	}
	if regressed != 0 {
		return fmt.Errorf("%d row(s) regressed", regressed)
	}
	return nil
}
