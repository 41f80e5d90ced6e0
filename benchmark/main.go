// Command benchmark is the repository's performance ledger: six
// fixed-work, closed-loop workloads measured end to end on the cluster
// assembly the figures and the checker certify (bench.NewCluster), and a
// per-layer ledger — probes of every layer a transaction touches plus a
// traced re-run of each workload — that says which layer a change in the
// end-to-end numbers came from. It lives in a module of its own and
// reaches every layer from outside, through its exported functions.
//
//	go run . run     [-seed 42] [-seconds 10] [-out results.json]
//	go run . trace   [-seed 42] [-seconds 10] [-out layers.json]
//	go run . compare a.json b.json
//	go run . --workload tpcc-dist --seed 42 --seconds 10 --trace 0
//
// The last form is the single-run mode BENCHMARK.json's command uses: one
// workload, one JSON object on the last line of standard output. See
// README.md for the metric glossary and how to read the output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// logw takes everything that is not the result: progress, tables, notes.
var logw io.Writer = os.Stderr

// File is what run and trace write and compare reads.
type File struct {
	Provenance Provenance `json:"provenance"`
	// Probes holds the workload-independent per-layer probes (trace only).
	Probes  map[string]Metric `json:"probes,omitempty"`
	Results []*Result         `json:"results"`
}

func main() {
	// The load shape fixes the parallelism: a bigger host must not turn
	// the same benchmark into a different one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:], false)
		case "trace":
			return cmdRun(args[1:], true)
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdSingle(args)
}

// cmdRun is `run` (traced=false: end-to-end metrics of every workload)
// and `trace` (traced=true: the probes once, then a traced quarter-work
// re-run of every workload).
func cmdRun(args []string, traced bool) error {
	name := "run"
	if traced {
		name = "trace"
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var o runOptions
	o.register(fs)
	out := fs.String("out", "", "write results as JSON to this file")
	only := fs.String("workload", "", "run only this workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.prepare(); err != nil {
		return err
	}
	logw = os.Stdout

	file := &File{Provenance: provenance()}
	if traced {
		fmt.Fprintln(logw, "per-layer probes")
		var err error
		if file.Probes, err = runProbes(o.workdir); err != nil {
			return err
		}
		for _, name := range probeMetrics {
			m := file.Probes[name]
			fmt.Fprintf(logw, "  %-44s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	incorrect := 0
	for _, s := range specs {
		if *only != "" && s.Name != *only {
			continue
		}
		f, defs := s.measure, runMetrics
		if traced {
			f, defs = s.trace, tracedMetrics
		}
		res, err := guarded(true, func() (*Result, error) { return f(o) })
		if err != nil {
			return err
		}
		printResult(res, defs)
		if !res.Correct {
			incorrect++
		}
		file.Results = append(file.Results, res)
	}
	if len(file.Results) == 0 {
		return fmt.Errorf("no workload named %q", *only)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect != 0 {
		return fmt.Errorf("%d workload(s) failed a correctness check", incorrect)
	}
	return nil
}

// singleRunLimit bounds the single-run mode: the driver allows 180 s and
// a hang (ROADMAP item 4 lists one in tcpnet's Close) must not outlive it.
const singleRunLimit = 170 * time.Second

// cmdSingle is the mode BENCHMARK.json's command runs: one workload, the
// result as one JSON object on the last line of standard output.
func cmdSingle(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o runOptions
	o.register(fs)
	workload := fs.String("workload", "", "workload to run (required)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the probes and a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q (modes: run, trace, compare, or --workload)", fs.Arg(0))
	}
	s := specByName(*workload)
	if s == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if err := o.prepare(); err != nil {
		return err
	}
	watchdog := time.AfterFunc(singleRunLimit, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded", singleRunLimit, "- giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()

	var res *Result
	var defs []MetricDef
	var err error
	if *traced == 0 {
		defs = endToEnd
		res, err = guarded(false, func() (*Result, error) { return s.measure(o) })
	} else {
		defs = perLayer()
		var probes map[string]Metric
		if probes, err = runProbes(o.workdir); err != nil {
			return err
		}
		if res, err = guarded(false, func() (*Result, error) { return s.trace(o) }); err == nil {
			for name, m := range probes {
				res.Metrics[name] = m
			}
		}
	}
	if err != nil {
		return err
	}
	printResult(res, defs)
	if prov, err := json.Marshal(provenance()); err == nil {
		fmt.Fprintf(logw, "provenance %s\n", prov)
	}

	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]Metric, len(defs))}
	for _, def := range defs {
		m, ok := res.Metrics[def.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", s.Name, def.Name)
		}
		line.Metrics[def.Name] = m
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}
