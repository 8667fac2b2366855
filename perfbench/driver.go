package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"kumquat/internal/obs"
)

// config is one run's settings.
type config struct {
	// Seed seeds every generated corpus, the request mix and synthesis.
	Seed int64
	// Measure is how long the timed passes run; the pass in flight at the
	// deadline completes.
	Measure time.Duration
	// Trace selects the per-layer run: passes alternate untraced and
	// traced, and the standalone layer calls run after them.
	Trace bool
	// K is the data-parallelism degree (nproc).
	K int
	// Scale multiplies every input size; the self-test runs far below 1.
	Scale float64
	// Scripts, when positive, limits catalog-cold to the first Scripts
	// catalog scripts and serve-cluster to its first Scripts scripts.
	Scripts int
	// Dir receives generated corpora; it is removed after the run.
	Dir string
	// CorruptOp, when not negative, appends one byte to the output of
	// that operation (counted from 0 across the run) before its check —
	// the self-test's proof that the oracle comparison counts failures.
	CorruptOp int
}

// scaled returns n scaled by the run's Scale, at least min.
func (c config) scaled(n, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		return min
	}
	return v
}

// workload is one named traffic mix over the program.
type workload interface {
	// setup builds the workload's state from scratch: corpora, the serial
	// oracle, servers, warm-up. It is timed as setup_s and may run
	// several times in one run; close runs between calls.
	setup(ctx context.Context) error
	// pass runs one timed pass. A non-nil tracer asks for a traced pass:
	// the pass roots a trace in it and records it in passResult.trace.
	// Failed or wrong operations are recorded in the result, not
	// returned; an error means the benchmark itself could not go on.
	pass(ctx context.Context, tracer *obs.Tracer) (*passResult, error)
	// finish adds the workload's own metrics to r: combiners_found, and
	// in a traced run the per-layer figures.
	finish(ctx context.Context, r *runResult) error
	// close releases what setup built.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"text-stream", "sort-merge", "serve-cluster", "catalog-cold"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "text-stream":
		return newInproc(textStream, cfg), nil
	case "sort-merge":
		return newInproc(sortMerge, cfg), nil
	case "serve-cluster":
		return newServe(cfg), nil
	case "catalog-cold":
		return newCatalog(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// op is one checked operation: a pipeline pass, a script, a request.
type op struct {
	lat time.Duration
	ok  bool
}

// passResult is one pass's measurements.
type passResult struct {
	wall    time.Duration
	inBytes int64
	// alloc is the heap bytes the process allocated during the pass.
	alloc uint64
	ops   []op
	// emit is the time spent inside the benchmark's output sinks.
	emit time.Duration
	// trace and root are the pass's trace and its root span (traced
	// passes only).
	trace *obs.TraceData
	root  string
}

// runResult accumulates one run: passes, counts and metric values.
type runResult struct {
	cfg               config
	setups            []float64
	plain, traced     []*passResult
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	meta              map[string]any
	traceJSON         []byte
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

// sample records a metric value together with its sample count.
func (r *runResult) sample(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setupBudget is the set-up time after which a run stops repeating
// set-up once it has set up minSetups times.
const setupBudget = 2 * time.Second

// run sets the workload up, drives its timed passes and collects every
// metric of the run.
func run(ctx context.Context, name string, cfg config) (*runResult, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := &runResult{
		cfg:     cfg,
		values:  map[string]float64{},
		samples: map[string]int{},
		meta: map[string]any{
			"workload":   name,
			"seed":       cfg.Seed,
			"trace":      cfg.Trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"k":          cfg.K,
			"seconds":    cfg.Measure.Seconds(),
		},
	}
	// Set-up runs at least minSetups times, then again until it has taken
	// setupBudget in all (at most maxSetups times), so a 50 ms set-up is
	// timed often enough for its median to repeat and a 2 s one three
	// times. The traced run does not report setup_s and sets up once.
	minSetups, maxSetups := 3, 15
	if cfg.Trace {
		minSetups, maxSetups = 1, 1
	}
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		w.close()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		d := time.Since(start)
		spent += d
		r.setups = append(r.setups, d.Seconds())
	}
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(4, "perfbench")
	}
	// Return set-up's garbage and restart the resident high-water mark,
	// so peak_rss_mb measures the timed passes.
	debug.FreeOSMemory()
	r.meta["rss_reset"] = resetPeakRSS()
	total0, steal0 := cpuTicks()
	deadline := time.Now().Add(cfg.Measure)
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var tr *obs.Tracer
		if cfg.Trace && i%2 == 1 {
			tr = tracer
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := w.pass(ctx, tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		p.alloc = after.TotalAlloc - before.TotalAlloc
		for _, o := range p.ops {
			r.attempted++
			if !o.ok {
				r.failed++
			}
		}
		if tr != nil {
			r.traced = append(r.traced, p)
		} else {
			r.plain = append(r.plain, p)
		}
		if !time.Now().Before(deadline) && (!cfg.Trace || len(r.traced) > 0) {
			break
		}
	}
	total1, steal1 := cpuTicks()
	r.meta["host_steal_frac"] = ratio(steal1-steal0, total1-total0)
	r.endToEnd()
	if cfg.Trace {
		r.overhead()
	}
	if err := w.finish(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.meta["passes"] = len(r.plain)
	r.meta["traced_passes"] = len(r.traced)
	r.meta["samples"] = r.samples
	return r, nil
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func (r *runResult) endToEnd() {
	var walls, tputs, rates, allocs, lats []float64
	for _, p := range r.plain {
		w := p.wall.Seconds()
		walls = append(walls, w)
		tputs = append(tputs, float64(p.inBytes)/1e6/w)
		rates = append(rates, float64(len(p.ops))/w)
		allocs = append(allocs, float64(p.alloc)/float64(p.inBytes))
		for _, o := range p.ops {
			lats = append(lats, float64(o.lat)/float64(time.Millisecond))
		}
	}
	n := len(r.plain)
	r.sample("wall_s", median(walls), n)
	r.sample("throughput_mb_s", median(tputs), n)
	r.sample("req_per_s", median(rates), n)
	r.sample("alloc_b_per_in_b", median(allocs), n)
	r.sample("req_p50_ms", windowedQuantile(lats, 0.5), len(lats))
	r.sample("req_p95_ms", windowedQuantile(lats, 0.95), len(lats))
	r.meta["latency_windows"] = latencyWindows
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	r.set("peak_rss_mb", peakRSSMB())
	r.sample("setup_s", median(r.setups), len(r.setups))
}

// overhead compares traced with untraced pass walls.
func (r *runResult) overhead() {
	var plain, traced []float64
	for _, p := range r.plain {
		plain = append(plain, p.wall.Seconds())
	}
	for _, p := range r.traced {
		traced = append(traced, p.wall.Seconds())
	}
	base := median(plain)
	r.sample("obs.trace_overhead_frac", (median(traced)-base)/base, len(traced))
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result line: every declared end-to-end metric (or,
// in a traced run, every per-layer one) by name with its unit. A
// per-layer metric the workload does not exercise prints 0 and is
// listed as not applicable in the report line.
func (r *runResult) line(d *declaration, traced bool) ([]byte, error) {
	set := d.EndToEnd
	if traced {
		set = d.PerLayer
	}
	out := make(map[string]metric, len(set))
	na := []string{}
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
			}
			na = append(na, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	r.meta["not_applicable"] = na
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
}

// declaration is the part of BENCHMARK.json the benchmark prints from.
type declaration struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// commitOf names the measured source: the git commit when root is a git
// checkout, otherwise a digest of the Go sources, go.mod files and
// scripts under root.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		ref = strings.TrimPrefix(ref, "ref: ")
		if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, l := range strings.Split(string(packed), "\n") {
				if id, name, ok := strings.Cut(l, " "); ok && name == ref {
					return id
				}
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".sh":
			data, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the process's resident high-water mark at its
// current resident size (Linux clear_refs); false where unsupported.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuTicks reads the machine's total and steal CPU time from /proc/stat,
// in clock ticks: steal is time the hypervisor ran something else, the
// usual cause of run-to-run drift on a shared host.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// latencyWindows is how many consecutive windows of a run's operations
// the latency percentiles are taken over.
const latencyWindows = 5

// windowedQuantile splits xs, in run order, into latencyWindows
// consecutive windows of equal count, takes the Harrell–Davis q-quantile
// of each and returns their median (one window when xs has fewer
// values). A shared host slows every thread by up to 2x for stretches of
// seconds; a pooled p95 reports the slowest stretch whenever it covers a
// twentieth of the run, while the median window ignores any that covers
// fewer than half the windows.
func windowedQuantile(xs []float64, q float64) float64 {
	w := latencyWindows
	if len(xs) < w {
		w = 1
	}
	per := make([]float64, w)
	for i := range per {
		per[i] = hdQuantile(xs[i*len(xs)/w:(i+1)*len(xs)/w], q)
	}
	return median(per)
}

// hdQuantile returns the Harrell–Davis estimate of the q-quantile of xs
// (0 for none): the mean of every order statistic, weighted by the
// Beta((n+1)q, (n+1)(1-q)) probability of its slot. A single order
// statistic jumps when the quantile falls in a gap between request types
// (a mix of scripts and routes) or among the few slowest samples; the
// weighted mean moves smoothly, so the latency percentiles repeat from
// run to run.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, betai).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// durMedian is median over durations, in the given unit.
func durMedian(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
