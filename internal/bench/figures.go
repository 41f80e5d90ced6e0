package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/chillerdb/chiller/internal/stats"
)

// Point is one measurement.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced table/figure: a set of series over a shared X
// axis, printable as the rows the paper plots.
type Figure struct {
	Name   string // e.g. "Figure 7"
	Title  string
	XLabel string
	YLabel string
	// Transport records the fabric the figure's runs moved bytes over —
	// TransportSim ("simnet", the default when empty) or TransportTCP
	// ("tcp"), so A/B runs across fabrics are self-describing the same
	// way Lanes makes lane A/Bs self-describing. See docs/FIGURES.md.
	Transport string `json:",omitempty"`
	// Lanes records the per-node execution-lane count the experiment ran
	// with, so figure JSON is self-describing about intra-node
	// parallelism. 0 means the lane count varies within the figure (the
	// lane-sweep figure encodes it on the X axis instead).
	Lanes  int
	Series []Series
	// Aborts breaks each series' aborts down by reason, summed over the
	// figure's measurement points: series label → reason label
	// ("lock-conflict", "validation", "constraint", ...) → count. Only
	// present for figures backed by live cluster runs (a partitioning
	// metric sweep has no aborts to report).
	Aborts map[string]AbortProfile `json:",omitempty"`
	// Verbs carries each series' per-verb network profile, merged over
	// the figure's measurement points: series label → verb kind →
	// {count, p50/p95/p99 in microseconds}. Like Aborts, only present
	// for figures backed by live cluster runs.
	Verbs map[string]VerbProfileMap `json:",omitempty"`
}

// VerbProfileMap maps verb kind labels ("lock-read", "commit",
// "doorbell", ...) to their aggregated summaries.
type VerbProfileMap map[string]*VerbSummary

// VerbSummary is the JSON view of one verb kind's aggregated traffic.
// Percentiles are microseconds (the natural unit at simulated RDMA
// latencies); one-way verb kinds report zero percentiles.
type VerbSummary struct {
	Count     uint64
	P50Micros float64
	P95Micros float64
	P99Micros float64

	hist *stats.LatencyHist
}

// AbortProfile is a per-reason abort count map (keys are
// txn.AbortReason string labels).
type AbortProfile map[string]uint64

// Add appends a point to the named series, creating it if needed.
func (f *Figure) Add(label string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].Points = append(f.Series[i].Points, Point{x, y})
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, Points: []Point{{x, y}}})
}

// AddAborts folds a run's per-reason abort counts into the named
// series' profile.
func (f *Figure) AddAborts(label string, m *Metrics) {
	counts := m.AbortsByReason()
	if len(counts) == 0 {
		return
	}
	if f.Aborts == nil {
		f.Aborts = make(map[string]AbortProfile)
	}
	prof := f.Aborts[label]
	if prof == nil {
		prof = make(AbortProfile)
		f.Aborts[label] = prof
	}
	for reason, n := range counts {
		prof[reason] += n
	}
}

// AddVerbs folds a run's per-verb profiles into the named series' map,
// merging latency histograms so percentiles stay exact across the
// figure's measurement points.
func (f *Figure) AddVerbs(label string, m *Metrics) {
	if len(m.Verbs) == 0 {
		return
	}
	if f.Verbs == nil {
		f.Verbs = make(map[string]VerbProfileMap)
	}
	vm := f.Verbs[label]
	if vm == nil {
		vm = make(VerbProfileMap)
		f.Verbs[label] = vm
	}
	for kind, p := range m.Verbs {
		s := vm[kind]
		if s == nil {
			s = &VerbSummary{hist: &stats.LatencyHist{}}
			vm[kind] = s
		}
		s.Count += p.Count
		if p.hist != nil {
			p.hist.AddTo(s.hist)
		}
		s.P50Micros = micros(s.hist.Percentile(0.50))
		s.P95Micros = micros(s.hist.Percentile(0.95))
		s.P99Micros = micros(s.hist.Percentile(0.99))
	}
}

func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// Get returns the Y value of the named series at x (NaN-free: ok=false
// when missing).
func (f *Figure) Get(label string, x float64) (float64, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			for _, p := range s.Points {
				if p.X == x {
					return p.Y, true
				}
			}
		}
	}
	return 0, false
}

// xs returns the sorted union of X values across series.
func (f *Figure) xs() []float64 {
	set := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	out := make([]float64, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

// Fprint renders the figure as an aligned text table, one row per X
// value, one column per series — the same rows/series the paper reports.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(w, "%-24s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%16s", s.Label)
	}
	fmt.Fprintf(w, "    (%s)\n", f.YLabel)
	for _, x := range f.xs() {
		fmt.Fprintf(w, "%-24.4g", x)
		for _, s := range f.Series {
			if y, ok := f.Get(s.Label, x); ok {
				fmt.Fprintf(w, "%16.4g", y)
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	// Per-reason abort breakdown, one line per series with aborts, in
	// series order for stable output.
	for _, s := range f.Series {
		prof := f.Aborts[s.Label]
		if len(prof) == 0 {
			continue
		}
		reasons := make([]string, 0, len(prof))
		for r := range prof {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "aborts %-16s", s.Label)
		for _, r := range reasons {
			fmt.Fprintf(w, "  %s=%d", r, prof[r])
		}
		fmt.Fprintln(w)
	}
	// Per-verb network profile, one line per (series, verb kind).
	for _, s := range f.Series {
		vm := f.Verbs[s.Label]
		if len(vm) == 0 {
			continue
		}
		kinds := make([]string, 0, len(vm))
		for k := range vm {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			v := vm[k]
			fmt.Fprintf(w, "verbs %-17s %-11s n=%-9d p50=%.1fµs p95=%.1fµs p99=%.1fµs\n",
				s.Label, k, v.Count, v.P50Micros, v.P95Micros, v.P99Micros)
		}
	}
}
