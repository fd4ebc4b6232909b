// Command perfbench runs one workload of the study benchmark in this
// process and reports its measurements as one JSON line. perfbench/run.py
// builds it and starts it in fresh processes; see perfbench/README.md.
//
//	perfbench -workload paper-repro -seed 2021 -seconds 12 -mode run -dir DIR
//
// Modes: "setup" brings the process to ready-to-run, prints "ready" and
// exits; "run" also measures the timed phase; "trace" runs the traced
// serial pass and reports per-layer metrics. In every mode "ready" is
// printed on its own line as soon as set-up is done, so the parent can
// time set-up from process start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// result is the JSON line a perfbench process ends with.
type result struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Notes      map[string]any     `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", referenceSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "timed phase length in seconds")
		mode    = flag.String("mode", "run", "setup, run or trace")
		dir     = flag.String("dir", "", "working directory for checkpoints and the job store (must be on a real disk)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -dir is required")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, *dir, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *mode, time.Duration(*seconds*float64(time.Second)))
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	res.GOMAXPROCS, res.GoVersion = runtime.GOMAXPROCS(0), runtime.Version()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w workload, mode string, d time.Duration) (*result, error) {
	ctx := context.Background()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fmt.Println("ready")
	switch mode {
	case "setup":
		return nil, nil
	case "run":
		if err := w.prepare(ctx); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		m := newMeter()
		defer m.close()
		return summarize(w.measure(ctx, m, d), m), nil
	case "trace":
		if err := w.prepare(ctx); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		tr := newTracer()
		if err := w.trace(ctx, tr); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return &result{Ops: tr.ops, Failed: tr.failed, Metrics: tr.vals, Notes: tr.notes}, nil
	}
	return nil, fmt.Errorf("unknown mode %q", mode)
}

// summarize turns the timed operations into the end-to-end metrics
// (all but setup_s, which the parent measures across processes).
// Throughput and CPU per site are medians over operations, so an
// operation slowed by something else on the machine does not move
// them.
func summarize(ops []opResult, m *meter) *result {
	res := &result{Ops: len(ops), Metrics: map[string]float64{}}
	sites := 0
	var lat, rate, cpu []float64
	for _, op := range ops {
		if op.err != nil {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, op.err.Error())
			}
			continue
		}
		sites += op.sites
		lat = append(lat, op.latency.Seconds())
		rate = append(rate, float64(op.sites)/op.latency.Seconds())
		cpu = append(cpu, float64(op.cpu.Microseconds())/float64(op.sites))
	}
	wall := m.wall.Seconds()
	tail := tailPercentile(len(lat))
	perSite := func(v float64) float64 {
		if sites == 0 {
			return 0
		}
		return v / float64(sites)
	}
	res.Metrics["sites_per_s"] = median(rate)
	res.Metrics["jobs_per_s"] = 0
	if len(lat) > 0 {
		res.Metrics["jobs_per_s"] = 1 / median(lat)
	}
	res.Metrics["job_p50_s"] = median(lat)
	res.Metrics["job_p95_s"] = percentile(lat, tail)
	res.Metrics["cpu_us_per_site"] = median(cpu)
	res.Metrics["allocs_per_site"] = perSite(float64(m.objects))
	res.Metrics["alloc_bytes_per_site"] = perSite(float64(m.bytes))
	res.Metrics["peak_live_heap_mb"] = float64(m.left) / (1 << 20)
	res.Notes = map[string]any{
		"sites":                        sites,
		"timed_wall_s":                 wall,
		"latency_samples":              len(lat),
		"job_tail_pct":                 tail,
		"gc_cycles":                    m.gcCycles,
		"gc_sampled_peak_live_heap_mb": float64(m.sampled.Load()) / (1 << 20),
	}
	if len(lat) <= 400 {
		res.Notes["op_latencies_s"] = lat
	}
	return res
}
