package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Noise is what the guard saw around one run. On a shared host
// hypervisor steal moves every number by integer factors for minutes at
// a time; a result taken then is marked, not trusted.
type Noise struct {
	StealPct      float64 `json:"steal_pct"`
	CalibBeforeNs float64 `json:"calib_before_ns"`
	CalibAfterNs  float64 `json:"calib_after_ns"`
	Noisy         bool    `json:"noisy"`
}

const (
	maxStealPct   = 5.0
	maxCalibDrift = 0.10
	noiseRetries  = 3
	noiseWait     = 10 * time.Second
)

// cpuTicks reads the aggregate cpu line of /proc/stat: total and steal
// jiffies. Zeros when the file is unreadable (steal then reads as 0).
func cpuTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user, so stop before it.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-CPU loop — a dependent xorshift chain, so
// it tracks the core's effective clock and nothing else — and returns
// nanoseconds per iteration, the fastest of eight tries (the first ones
// also warm the core up after an idle spell).
func calibrate() float64 {
	const iters = 4 << 20
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 8; try++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds()) / iters
}

// observe runs f between two calibrations and two /proc/stat readings.
func observe(f func() error) (Noise, error) {
	var n Noise
	n.CalibBeforeNs = calibrate()
	total0, steal0 := cpuTicks()
	err := f()
	total1, steal1 := cpuTicks()
	n.CalibAfterNs = calibrate()
	if total1 > total0 {
		n.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	drift := n.CalibAfterNs/n.CalibBeforeNs - 1
	if drift < 0 {
		drift = -drift
	}
	n.Noisy = n.StealPct > maxStealPct || drift > maxCalibDrift
	return n, err
}

// Provenance records where a set of results came from.
type Provenance struct {
	Time       string `json:"time"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func provenance() Provenance {
	p := Provenance{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The go tool stamps the commit into the binary when it builds inside
	// a git checkout; elsewhere there is none to record.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitCommit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.GitCommit += "+dirty"
				}
			}
		}
	}
	return p
}
