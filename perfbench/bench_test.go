package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// testSizes shrink the universe workload so each test run takes
// seconds.
var testSizes = sizes{universe: 2_000}

// flipByte corrupts one byte of an output.
func flipByte(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}

// runOnce sets a workload up in this process and runs one timed
// operation, output checks included.
func runOnce(t *testing.T, name string, tamper func([]byte) []byte) *result {
	t.Helper()
	w, err := newWorkload(name, 11, t.TempDir(), testSizes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.(interface{ outputs() *verifier }).outputs().tamper = tamper
	ctx := context.Background()
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	m := newMeter()
	defer m.close()
	return summarize(w.measure(ctx, m, 0), m)
}

func TestOutputChecks(t *testing.T) {
	for _, name := range []string{"paper-repro", "universe-1m"} {
		t.Run(name, func(t *testing.T) {
			if res := runOnce(t, name, nil); res.Ops == 0 || res.Failed != 0 {
				t.Fatalf("untouched outputs: %d of %d operations failed: %v", res.Failed, res.Ops, res.Errors)
			}
			res := runOnce(t, name, flipByte)
			if res.Ops == 0 || res.Failed != res.Ops {
				t.Fatalf("one-byte corruption: %d of %d operations failed, want all", res.Failed, res.Ops)
			}
			if res.Metrics["sites_per_s"] != 0 {
				t.Errorf("failed operations still counted %v sites/s", res.Metrics["sites_per_s"])
			}
		})
	}
}

// TestTraceReportsEveryLayer checks that each workload's traced run
// measures every per-layer metric BENCHMARK.json declares.
func TestTraceReportsEveryLayer(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-repro", "universe-1m"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 11, t.TempDir(), testSizes)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			ctx := context.Background()
			if err := w.setup(ctx); err != nil {
				t.Fatal(err)
			}
			if err := w.prepare(ctx); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			if err := w.trace(ctx, tr); err != nil {
				t.Fatal(err)
			}
			if tr.ops == 0 || tr.failed != 0 {
				t.Errorf("traced run checked %d operations, %d failed", tr.ops, tr.failed)
			}
			for _, m := range spec.PerLayer {
				if _, ok := tr.vals[m.Name]; !ok {
					t.Errorf("%s not measured", m.Name)
				}
			}
			if len(tr.vals) != len(spec.PerLayer) {
				t.Errorf("measured %d layer metrics, BENCHMARK.json declares %d", len(tr.vals), len(spec.PerLayer))
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2, 50}, {19, 50}, {20, 50}, {32, 68.75}, {200, 95}, {1000, 95}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}
