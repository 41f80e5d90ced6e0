package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Every workload, at about 1% of a measured run's work and with tracing
// on, commits every request and passes its correctness checks.
func TestWorkloadsPassChecks(t *testing.T) {
	workdir := t.TempDir()
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel() // set-up dominates, and it is single-threaded
			d, err := s.setup(workdir, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			requests := s.requestsPerClient(10, 0.01)
			ph := d.runPhase(goldenSeed, requests, 30*time.Second, true)
			if got, want := ph.issued(), uint64(requests*numClients); got != want {
				t.Errorf("issued %d requests, want %d", got, want)
			}
			if ph.failed() != 0 || ph.commits() != ph.issued() {
				t.Errorf("%d of %d requests committed, %d failed", ph.commits(), ph.issued(), ph.failed())
			}
			for _, f := range d.verify(ph) {
				t.Error(f)
			}
			for _, cl := range ph.clients {
				var requestSpans int
				for _, sp := range cl.spans {
					if sp.kind == spanRequest {
						requestSpans++
					}
					if sp.end < sp.start {
						t.Fatalf("client %d: span ends before it starts: %+v", cl.id, sp)
					}
				}
				if requestSpans != requests {
					t.Errorf("client %d: %d request spans, want %d", cl.id, requestSpans, requests)
				}
			}
		})
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the tables in this package name the same workloads
// and metrics, and every name and unit obeys the manifest's rules.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRule := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		t.Helper()
		if !nameRule.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []MetricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			if !unitRule.MatchString(g.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", g.Name, g.Unit)
			}
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the package %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the package has %v (and it must be in (0, 0.25])", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer(), false)
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(m.PerLayer))
	}
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("the first end-to-end metric must be setup_s")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", m.RunSeconds)
	}
	for _, p := range m.Paths {
		if p != "benchmark" {
			t.Errorf("unexpected path %q", p)
		}
	}
}

// The input fingerprint depends on the seed and nothing else, and the
// recorded golden values are the current generators'.
func TestFingerprint(t *testing.T) {
	for _, s := range specs {
		a, err := s.checkFingerprint(goldenSeed)
		if err != nil {
			t.Error(err)
		}
		b, _ := s.fingerprint(goldenSeed)
		c, _ := s.fingerprint(goldenSeed + 1)
		if a != b {
			t.Errorf("%s: fingerprint is not deterministic: %#x then %#x", s.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: fingerprint ignores the seed", s.Name)
		}
	}
}

// The package keeps scripts/checkdocs.sh's rules although that script
// does not reach into this module: a package doc comment, and the
// simulator only through internal/transport/simfab.
func TestPackageDocAndImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ParseComments|parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	documented := false
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Command benchmark") {
				documented = true
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); strings.HasSuffix(path, "/internal/simnet") {
					t.Errorf("%s imports %s; use internal/transport/simfab", name, path)
				}
			}
		}
	}
	if !documented {
		t.Error("package doc comment missing")
	}
}

func TestJudge(t *testing.T) {
	tput := MetricDef{Name: "tput_tps", Better: "higher", Bound: 0.08}
	lat := MetricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		def   MetricDef
		a, b  float64
		noisy bool
		want  string
	}{
		{tput, 1000, 950, false, verdictOK},
		{tput, 1000, 900, false, verdictRegressed},
		{tput, 1000, 1100, false, verdictImproved},
		{tput, 1000, 900, true, verdictUnresolved},
		{lat, 100, 109, false, verdictOK},
		{lat, 100, 111, false, verdictRegressed},
		{lat, 100, 89, false, verdictImproved},
		{failedShare, 0, 0, false, verdictOK},
		{failedShare, 0, 0.001, false, verdictRegressed},
	} {
		if got := judge(tc.def, tc.a, tc.b, tc.noisy); got != tc.want {
			t.Errorf("judge(%s, %v -> %v, noisy=%v) = %s, want %s", tc.def.Name, tc.a, tc.b, tc.noisy, got, tc.want)
		}
	}
}

func TestThroughputIsMedianOfFullBuckets(t *testing.T) {
	// 5.5 s: bucket 0 (ramp-up) and the partial bucket 5 are dropped.
	ph := &phase{elapsed: 5500 * time.Millisecond, clients: []*client{
		{buckets: []uint32{1, 100, 300, 200, 400, 9}},
		{buckets: []uint32{1, 10, 30, 20, 40, 9}},
	}}
	if got, want := ph.throughput(), 275.0; got != want {
		t.Errorf("throughput %v, want %v (median of 110 330 220 440)", got, want)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
