package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kumquat"
	"kumquat/internal/obs"
	"kumquat/internal/pipeline"
	"kumquat/internal/unix"
)

// inprocSpec is an in-process workload: one script over generated host
// files, run through the root API's mmap → plan → execute route.
type inprocSpec struct {
	name   string
	script string
	files  []corpusFile
	// probes are the stages measured standalone as unix.<label>.*.
	probes []stageProbe
}

// corpusFile is one generated input, mapped from a host file.
type corpusFile struct {
	name string // file name inside the script's environment
	gen  func(*rand.Rand, int) []byte
	size int // bytes at scale 1
}

// stageProbe names stage si of pipeline pi for the unix layer's metrics.
type stageProbe struct {
	label  string
	pi, si int
}

// textStream is one fused line-mapper region over prose: mmap ingest,
// per-line unix work and emit carry the time; combine and synth do not.
// The corpus stays in cache at 1 MiB: over 8 MiB, neighbours' memory
// traffic on a shared host swung throughput by ±12% between runs.
var textStream = inprocSpec{
	name:   "text-stream",
	script: "cat in/corpus.txt | tr A-Z a-z | grep light | cut -d ' ' -f 1,2,3 | sed 's/light/dark/'\n",
	files:  []corpusFile{{"in/corpus.txt", genProse, 1 << 20}},
	probes: []stageProbe{{"tr", 0, 0}, {"grep", 0, 1}, {"cut", 0, 2}, {"sed", 0, 3}},
}

// sortMerge is the paper's word-frequency one-liner over prose plus
// analytics-mts 1.sh over telemetry: sort, its k-way merge and the
// push-sort-merge exit carry the time, and tr -cs runs unparallelized.
var sortMerge = inprocSpec{
	name: "sort-merge",
	script: "cat in/prose.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn\n" +
		`cat in/mts.csv | sed 's/T..:..:..//' | cut -d ',' -f 1,3 | sort -u | cut -d ',' -f 1 | sort | uniq -c | awk -v OFS="\t" "{print \$2,\$1}"` + "\n",
	files: []corpusFile{
		{"in/prose.txt", genProse, 512 << 10},
		{"in/mts.csv", genTelemetry, 512 << 10},
	},
	probes: []stageProbe{{"tr_squeeze", 0, 0}, {"sort", 0, 2}, {"uniq_c", 0, 3}, {"sort_u", 1, 2}},
}

// inproc runs an inprocSpec.
type inproc struct {
	spec    inprocSpec
	cfg     config
	check   *checker
	script  *pipeline.Script
	paths   []string
	inBytes int64
	oracle  digest
	sys     *kumquat.System

	// Observations of the untraced timed passes.
	plan, exec, emit []time.Duration
	last             *kumquat.Plan
	lastRep          *kumquat.RunReport
	// Combiner-cache activity of every timed pass's compilation.
	hits, lookups int64
}

func newInproc(spec inprocSpec, cfg config) *inproc {
	return &inproc{spec: spec, cfg: cfg, check: newChecker(cfg)}
}

// setup generates the corpora from the seed into host files, computes
// the serial oracle, and warms the system's combiner cache with one
// untimed pass.
func (w *inproc) setup(ctx context.Context) error {
	script, err := pipeline.ParseScript(w.spec.script, nil)
	if err != nil {
		return err
	}
	w.script = script
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	oracleEnv := unix.DefaultEnv()
	w.paths, w.inBytes = nil, 0
	for i, f := range w.spec.files {
		data := f.gen(rng, w.cfg.scaled(f.size, 2048))
		path := filepath.Join(w.cfg.Dir, fmt.Sprintf("%s-%d.txt", w.spec.name, i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
		w.inBytes += int64(len(data))
		oracleEnv.FS.RegisterBytes(f.name, data)
	}
	out, err := serialRun(oracleEnv, script, nil)
	if err != nil {
		return fmt.Errorf("serial oracle: %w", err)
	}
	w.oracle = digestOf(out)
	w.sys = kumquat.NewWithOptions(kumquat.NewEnv(), kumquat.Options{Seed: w.cfg.Seed})
	sink := newHashSink()
	if _, err := w.execute(ctx, sink); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if sink.sum() != w.oracle {
		return fmt.Errorf("warm-up output differs from the serial oracle")
	}
	return nil
}

// route is what one execution of the measured route produced.
type route struct {
	plan       *kumquat.Plan
	rep        *kumquat.RunReport
	planD, run time.Duration
}

// execute is the measured route: map the files into a fresh environment,
// compile the script with the warm system, execute it optimized with
// fusion on into sink. Its spans are the benchmark's own layer spans.
func (w *inproc) execute(ctx context.Context, sink *hashSink) (*route, error) {
	env := kumquat.NewEnv()
	defer env.Close()
	for i, f := range w.spec.files {
		_, sp := obs.StartSpan(ctx, "textio.map")
		err := env.RegisterFile(f.name, w.paths[i])
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if obs.FromContext(ctx) != nil {
		// Traced passes index up front so ingest gets a span; the
		// executor reuses the shared index either way.
		for _, f := range w.spec.files {
			_, sp := obs.StartSpan(ctx, "textio.index")
			_, err := env.ReadSeq(f.name)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	pctx, sp := obs.StartSpan(ctx, "pipeline.plan")
	plan, err := w.sys.ParallelizeInEnv(pctx, env, w.spec.script)
	sp.End()
	if err != nil {
		return nil, err
	}
	planned := time.Now()
	ectx, sp := obs.StartSpan(ctx, "pipeline.exec")
	rep, err := plan.Execute(ectx,
		kumquat.WithParallelism(w.cfg.K),
		kumquat.WithMode(kumquat.Optimized),
		kumquat.WithFuse(true),
		kumquat.WithOutput(sink))
	sp.End()
	if err != nil {
		return nil, err
	}
	return &route{plan: plan, rep: rep, planD: planned.Sub(start), run: time.Since(planned)}, nil
}

func (w *inproc) pass(ctx context.Context, tracer *obs.Tracer) (*passResult, error) {
	ctx, root := tracer.StartTrace(ctx, "pass")
	sink := newHashSink()
	start := time.Now()
	rt, err := w.execute(ctx, sink)
	wall := time.Since(start)
	root.End()
	ok := err == nil && w.check.check(sink, w.oracle)
	p := &passResult{wall: wall, inBytes: w.inBytes, emit: sink.emit, ops: []op{{lat: wall, ok: ok}}}
	if err == nil {
		w.hits += rt.rep.SynthCache.Hits + rt.rep.SynthCache.DiskHits
		w.lookups += rt.rep.SynthCache.Lookups()
		if root == nil {
			w.plan = append(w.plan, rt.planD)
			w.exec = append(w.exec, rt.run)
			w.emit = append(w.emit, sink.emit)
			w.last, w.lastRep = rt.plan, rt.rep
		}
	}
	if root != nil {
		p.root = root.SpanContext().SpanID.String()
		p.trace, _ = tracer.Trace(root.SpanContext().TraceID)
	}
	return p, nil
}

func (w *inproc) finish(ctx context.Context, r *runResult) error {
	if w.last == nil {
		return fmt.Errorf("no untraced pass succeeded")
	}
	stages := w.last.Stages()
	specs := uniqueSpecs(w.script)
	found := map[string]bool{}
	for _, st := range stages {
		if st.Combiner != "" {
			found[st.Spec] = true
		}
	}
	r.set("combiners_found", float64(len(found)))
	if !r.cfg.Trace {
		return nil
	}

	wallMS := r.values["wall_s"] * 1000
	r.sample("pipeline.plan_ms", durMedian(w.plan, time.Millisecond), len(w.plan))
	r.sample("pipeline.exec_s", durMedian(w.exec, time.Second), len(w.exec))
	r.sample("pipeline.emit_ms", durMedian(w.emit, time.Millisecond), len(w.emit))
	chunks := 0
	for _, reg := range w.lastRep.Regions {
		chunks += reg.Chunks
	}
	reportPlanShape(r, len(w.lastRep.Regions), chunks, w.lastRep.Rewrites)
	if err := measureTextio(r, w.paths, w.cfg.K, wallMS); err != nil {
		return err
	}

	// Re-run the serial chain to reach each stage's real upstream input,
	// measuring every stage standalone (unix) and every parallel stage's
	// combine (dsl) on it. The chain visits stages in the order Stages
	// lists them.
	labels := map[[2]int]string{}
	for _, pr := range w.spec.probes {
		labels[[2]int{pr.pi, pr.si}] = pr.label
	}
	env := unix.DefaultEnv()
	for i, f := range w.spec.files {
		data, err := os.ReadFile(w.paths[i])
		if err != nil {
			return err
		}
		env.FS.RegisterBytes(f.name, data)
	}
	var unixEst time.Duration
	var cc combineCost
	var stageErr error
	next := 0
	_, err := serialRun(env, w.script, func(pi, si int, cmd unix.Command, in string, _ time.Duration) {
		info := stages[next]
		next++
		if stageErr != nil {
			return
		}
		c, err := measureStage(ctx, cmd, in)
		if err != nil {
			stageErr = err
			return
		}
		if info.Parallel {
			unixEst += c.wall / time.Duration(w.cfg.K)
			res, err := w.sys.Synthesize(info.Spec)
			if err == nil && res.Combiner != nil {
				stageErr = cc.measureCombine(cmd, res.Combiner, in, w.cfg.K)
			}
		} else {
			unixEst += c.wall
		}
		if label, ok := labels[[2]int{pi, si}]; ok {
			reportStage(r, label, c)
		}
	})
	if err == nil {
		err = stageErr
	}
	if err != nil {
		return err
	}
	reportCombine(r, cc, wallMS)

	sc := measureSynth(ctx, specs, w.cfg.Seed)
	sc.hits, sc.lookups = w.hits, w.lookups
	sc.report(r)
	reportAttribution(r, inprocLayer, inprocLayers, carveUnix(unixEst))
	return nil
}

func (w *inproc) close() {}

// uniqueSpecs lists a script's distinct stage commands in order.
func uniqueSpecs(script *pipeline.Script) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range script.Pipelines {
		for _, s := range p.Stages {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// reportPlanShape records an executed plan's optimizer regions, the
// chunks they ran as, and the dataflow rewrites that fired.
func reportPlanShape(r *runResult, regions, chunks int, rewrites map[string]int) {
	r.set("pipeline.regions", float64(regions))
	r.set("pipeline.chunks", float64(chunks))
	for _, rule := range []string{"fuse-streamers", "elide-combine", "push-sort-merge"} {
		r.set("pipeline.rewrites."+rule, float64(rewrites[rule]))
	}
}
