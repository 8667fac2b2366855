package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"kumquat/internal/obs"
)

// tinyConfig runs a workload at a scale that finishes in seconds.
func tinyConfig(t *testing.T) config {
	return config{
		Seed:      7,
		Measure:   200 * time.Millisecond,
		K:         2,
		Scale:     0.01,
		Scripts:   4,
		Dir:       t.TempDir(),
		CorruptOp: -1,
	}
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runLine(t *testing.T, d *declaration, name string, cfg config) resultLine {
	t.Helper()
	res, err := run(context.Background(), name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.line(d, cfg.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Attempted < 1 {
		t.Fatalf("attempted = %d, want at least 1", out.Attempted)
	}
	return out
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced: every declared metric is printed with its declared unit, every
// correctness check passes, and a deliberately corrupted output is
// counted as failed.
func TestWorkloadsTiny(t *testing.T) {
	d, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := tinyConfig(t)
				cfg.Trace = traced
				out := runLine(t, d, name, cfg)
				if !out.Correct || out.Failed != 0 {
					t.Errorf("trace=%v: correct=%v failed=%d of %d", traced, out.Correct, out.Failed, out.Attempted)
				}
				set := d.EndToEnd
				if traced {
					set = d.PerLayer
				}
				if len(out.Metrics) != len(set) {
					t.Errorf("trace=%v: printed %d metrics, declared %d", traced, len(out.Metrics), len(set))
				}
				for _, m := range set {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not printed", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, declared %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}

			cfg := tinyConfig(t)
			cfg.CorruptOp = 0
			out := runLine(t, d, name, cfg)
			if out.Correct || out.Failed < 1 {
				t.Fatalf("corrupted output not caught: correct=%v failed=%d", out.Correct, out.Failed)
			}
			if ok := out.Metrics["ok_frac"].Value; ok >= 1 {
				t.Errorf("ok_frac = %v with a corrupted output, want < 1", ok)
			}
		})
	}
}

// TestAttributeSplitsWall checks the traced split on a synthetic tree:
// the layers plus the remainder add up to the root's wall, and time two
// children share is split between them.
func TestAttributeSplitsWall(t *testing.T) {
	span := func(id, parent, name string, start, dur int64) obs.SpanRecord {
		return obs.SpanRecord{SpanID: id, ParentID: parent, Name: name, StartUS: start, DurUS: dur}
	}
	td := &obs.TraceData{Spans: []obs.SpanRecord{
		span("r", "", "pass", 0, 100),
		span("a", "r", "textio.map", 10, 20),    // 10..30 alone
		span("b", "r", "pipeline.exec", 40, 50), // 40..90
		span("c", "b", "combine", 60, 20),       // 60..80, overlapping d
		span("d", "b", "synth", 70, 20),         // 70..90
	}}
	a := attribute(td, "r", inprocLayer)
	want := map[string]time.Duration{
		"textio":   20 * time.Microsecond,
		"pipeline": 20 * time.Microsecond, // 40..60
		"dsl":      15 * time.Microsecond, // 60..70 + half of 70..80
		"synth":    15 * time.Microsecond, // half of 70..80 + 80..90
	}
	for layer, d := range want {
		if got := a.layers[layer]; got != d {
			t.Errorf("%s = %v, want %v", layer, got, d)
		}
	}
	if a.unattributed != 30*time.Microsecond {
		t.Errorf("unattributed = %v, want 30µs", a.unattributed)
	}
	if a.wall != 100*time.Microsecond {
		t.Errorf("wall = %v, want 100µs", a.wall)
	}
}

// TestHDQuantile checks the Harrell–Davis estimator: its weights sum to
// one, it is exact on symmetric data at the median, and its upper
// percentiles sit among the matching order statistics.
func TestHDQuantile(t *testing.T) {
	near := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if got := hdQuantile([]float64{3, 3, 3, 3, 3}, 0.95); !near(got, 3, 1e-9) {
		t.Errorf("constant sample: p95 = %v, want 3", got)
	}
	var xs []float64
	for i := 99; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := hdQuantile(xs, 0.5); !near(got, 50, 1e-9) {
		t.Errorf("1..99: p50 = %v, want 50", got)
	}
	if got := hdQuantile(xs, 0.95); got < 93 || got > 96 {
		t.Errorf("1..99: p95 = %v, want within [93, 96]", got)
	}
	if lo, hi := hdQuantile(xs, 0.5), hdQuantile(xs, 0.95); lo >= hi {
		t.Errorf("p50 %v not below p95 %v", lo, hi)
	}
	big := make([]float64, 3000)
	for i := range big {
		big[i] = float64(i % 7)
	}
	if got := hdQuantile(big, 0.95); !near(got, 6, 1e-6) {
		t.Errorf("3000 samples of 0..6: p95 = %v, want 6", got)
	}
	if got := hdQuantile(big, 0.5); !near(got, 3, 0.01) {
		t.Errorf("3000 samples of 0..6: p50 = %v, want 3", got)
	}
	if got := hdQuantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

// TestWindowedQuantile checks that a slow stretch covering two of the
// five windows leaves the windowed p95 at the steady windows' value.
func TestWindowedQuantile(t *testing.T) {
	var xs []float64
	for w := 0; w < latencyWindows; w++ {
		for i := 0; i < 100; i++ {
			v := 10 + float64(i%10)
			if w == 1 || w == 3 {
				v *= 2
			}
			xs = append(xs, v)
		}
	}
	steady := hdQuantile(xs[:100], 0.95)
	if got := windowedQuantile(xs, 0.95); got != steady {
		t.Errorf("windowed p95 = %v, want the steady windows' %v", got, steady)
	}
	if pooled := hdQuantile(xs, 0.95); pooled < 1.5*steady {
		t.Errorf("pooled p95 = %v, expected the slow stretch to raise it above %v", pooled, 1.5*steady)
	}
	if got := windowedQuantile([]float64{4, 2}, 0.5); got != hdQuantile([]float64{4, 2}, 0.5) {
		t.Errorf("two values: %v, want one window", got)
	}
}
