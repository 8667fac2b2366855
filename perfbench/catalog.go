package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"kumquat/internal/bench"
	"kumquat/internal/obs"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// catalogLines is the primary-input line count of every catalog script's
// registered inputs: small, so synthesis and planning carry the time.
const catalogLines = 200

// catalogSynthWorkers is the synthesis worker pool of catalog-cold.
// Synthesis filters and scores candidates in many short fork-join phases;
// with two workers each phase waits for whichever vCPU the host serves
// last, so a thread busy half the time beside the benchmark slowed the
// catalog by 17–21% on a 2-vCPU VM, against under 7% with one worker.
// Results are identical at every worker count, so one worker measures
// the synthesis work itself; the executor still runs at k = nproc.
const catalogSynthWorkers = 1

// catalog is the catalog-cold workload: every pass compiles all catalog
// scripts with a fresh engine whose cache is empty and memory-only (so
// every unique command is synthesized cold), executes each script once,
// optimized, and checks its output against the serial oracle.
type catalog struct {
	cfg   config
	check *checker
	specs []bench.ScriptSpec
	// scripts are the parsed specs; inputs the files each registers.
	scripts []*pipeline.Script
	inputs  [][]inputFile
	oracle  []digest
	inBytes int64
	// unixWall is each stage's serial wall in the oracle run, keyed by
	// script, pipeline and stage.
	unixWall map[[3]int]time.Duration

	// passes counts the passes since setup. Pass i synthesizes with seed
	// Seed+i, so a run's figures average the synthesis cost over several
	// seeds instead of resting on one seed's draw of test inputs; pass 0,
	// with the run's own seed, gives combiners_found.
	passes int
	first  *catalogPass

	// Observations of the timed passes.
	last            *catalogPass
	lastEng         *synth.Engine
	exec, emit      []time.Duration
	regions, chunks int
	rewrites        map[string]int
	hits, lookups   int64
}

// inputFile is one generated input registered before a script runs.
type inputFile struct{ name, data string }

// catalogPass is what one pass compiled.
type catalogPass struct {
	plans   [][]*pipeline.Plan
	results map[string]*synth.Result // first synthesis of each spec
	cold    time.Duration            // wall time inside synthesis
}

func newCatalog(cfg config) *catalog { return &catalog{cfg: cfg, check: newChecker(cfg)} }

// setup generates every script's inputs with bench.RegisterInputs and
// runs the serial oracle over the catalog in order.
func (w *catalog) setup(ctx context.Context) error {
	w.passes, w.first = 0, nil
	w.specs = bench.Catalog()
	if n := w.cfg.Scripts; n > 0 && n < len(w.specs) {
		w.specs = w.specs[:n]
	}
	lines := w.cfg.scaled(catalogLines, 20)
	byKind := map[string][]inputFile{}
	w.scripts, w.inputs, w.oracle, w.inBytes = nil, nil, nil, 0
	for _, spec := range w.specs {
		script, err := pipeline.ParseScript(spec.Source, nil)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", spec.Suite, spec.Name, err)
		}
		files, ok := byKind[spec.Input]
		if !ok {
			if files, err = generateInputs(spec.Input, lines); err != nil {
				return err
			}
			byKind[spec.Input] = files
		}
		w.scripts = append(w.scripts, script)
		w.inputs = append(w.inputs, files)
		for _, f := range files {
			w.inBytes += int64(len(f.data))
		}
	}
	env := unix.DefaultEnv()
	w.unixWall = map[[3]int]time.Duration{}
	for i, script := range w.scripts {
		for _, f := range w.inputs[i] {
			env.FS.Register(f.name, f.data)
		}
		out, err := serialRun(env, script, func(pi, si int, _ unix.Command, _ string, d time.Duration) {
			w.unixWall[[3]int{i, pi, si}] = d
		})
		if err != nil {
			return fmt.Errorf("%s/%s serial oracle: %w", w.specs[i].Suite, w.specs[i].Name, err)
		}
		w.oracle = append(w.oracle, digestOf(out))
	}
	return nil
}

// generateInputs captures the files bench.RegisterInputs writes for kind.
func generateInputs(kind string, lines int) ([]inputFile, error) {
	env := unix.DefaultEnv()
	before := map[string]string{}
	for _, name := range env.FS.Names() {
		before[name], _ = env.FS.Read(name)
	}
	if err := bench.RegisterInputs(env, kind, lines); err != nil {
		return nil, err
	}
	var files []inputFile
	for _, name := range env.FS.Names() {
		data, _ := env.FS.Read(name)
		if old, ok := before[name]; !ok || old != data {
			files = append(files, inputFile{name, data})
		}
	}
	return files, nil
}

func (w *catalog) pass(ctx context.Context, tracer *obs.Tracer) (*passResult, error) {
	ctx, root := tracer.StartTrace(ctx, "pass")
	start := time.Now()
	env := unix.DefaultEnv()
	eng := synth.New(env, synth.Options{Seed: w.cfg.Seed + int64(w.passes), Workers: catalogSynthWorkers})
	cp := &catalogPass{results: map[string]*synth.Result{}}
	p := &passResult{inBytes: w.inBytes}
	var exec time.Duration
	regions, chunks := 0, 0
	rewrites := map[string]int{}
	var hits, lookups int64
	for i, script := range w.scripts {
		opStart := time.Now()
		for _, f := range w.inputs[i] {
			env.FS.Register(f.name, f.data)
		}
		sink := newHashSink()
		var plans []*pipeline.Plan
		var err error
		for _, pl := range script.Pipelines {
			var plan *pipeline.Plan
			cctx, sp := obs.StartSpan(ctx, "pipeline.compile")
			plan, err = pipeline.CompileContext(cctx, pl, eng)
			sp.End()
			if err != nil {
				break
			}
			plans = append(plans, plan)
			hits += plan.SynthStats.Hits + plan.SynthStats.DiskHits
			lookups += plan.SynthStats.Lookups()
			for _, st := range plan.Stages {
				if _, seen := cp.results[st.Spec]; !seen && st.Synth != nil {
					cp.results[st.Spec] = st.Synth
					cp.cold += st.Synth.Duration
				}
			}
			var info pipeline.RunInfo
			var redirect strings.Builder
			var out io.Writer = sink
			if pl.OutputFile != "" {
				out = &redirect
			}
			t := time.Now()
			ectx, sp := obs.StartSpan(ctx, "pipeline.exec")
			_, err = plan.Execute(ectx, env, nil, out, pipeline.ModeOptimized, w.cfg.K,
				pipeline.WithRunInfo(&info))
			sp.End()
			exec += time.Since(t)
			if err != nil {
				break
			}
			regions += len(info.Regions)
			for _, rm := range info.Regions {
				chunks += rm.Chunks
			}
			for rule, n := range info.Rewrites {
				rewrites[rule] += n
			}
			if pl.OutputFile != "" {
				env.FS.Register(pl.OutputFile, redirect.String())
			}
		}
		ok := err == nil && w.check.check(sink, w.oracle[i])
		p.ops = append(p.ops, op{lat: time.Since(opStart), ok: ok})
		p.emit += sink.emit
		cp.plans = append(cp.plans, plans)
	}
	p.wall = time.Since(start)
	root.End()
	if w.passes == 0 {
		w.first = cp
	}
	w.passes++
	w.hits += hits
	w.lookups += lookups
	if root != nil {
		p.root = root.SpanContext().SpanID.String()
		p.trace, _ = tracer.Trace(root.SpanContext().TraceID)
		return p, nil
	}
	w.exec = append(w.exec, exec)
	w.emit = append(w.emit, p.emit)
	w.regions, w.chunks, w.rewrites = regions, chunks, rewrites
	w.last, w.lastEng = cp, eng
	return p, nil
}

func (w *catalog) finish(ctx context.Context, r *runResult) error {
	if w.last == nil {
		return fmt.Errorf("no untraced pass ran")
	}
	found := 0
	for _, res := range w.first.results {
		if res.Err == nil {
			found++
		}
	}
	r.set("combiners_found", float64(found))
	r.meta["unique_commands"] = len(w.first.results)
	if !r.cfg.Trace {
		return nil
	}

	// Planning with a warm engine: recompile every script against the
	// last pass's engine, whose cache now holds every combiner.
	start := time.Now()
	for _, script := range w.scripts {
		for _, pl := range script.Pipelines {
			if _, err := pipeline.CompileContext(ctx, pl, w.lastEng); err != nil {
				return err
			}
		}
	}
	r.set("pipeline.plan_ms", float64(time.Since(start))/float64(time.Millisecond))
	r.sample("pipeline.exec_s", durMedian(w.exec, time.Second), len(w.exec))
	r.sample("pipeline.emit_ms", durMedian(w.emit, time.Millisecond), len(w.emit))
	reportPlanShape(r, w.regions, w.chunks, w.rewrites)

	var specs []string
	for spec := range w.last.results {
		specs = append(specs, spec)
	}
	sc := synthCost{cold: w.last.cold, hits: w.hits, lookups: w.lookups}
	for _, spec := range specs {
		sc.add(w.last.results[spec])
	}
	sc.measureWarm(ctx, w.lastEng, specs)
	sc.report(r)

	// The unix share: each stage's serial wall from the oracle run,
	// divided by k where the last pass ran the stage chunk-parallel.
	var unixEst time.Duration
	for i, plans := range w.last.plans {
		for pi, plan := range plans {
			for si, st := range plan.Stages {
				d := w.unixWall[[3]int{i, pi, si}]
				if st.Parallel {
					d /= time.Duration(w.cfg.K)
				}
				unixEst += d
			}
		}
	}
	reportAttribution(r, inprocLayer, inprocLayers, carveUnix(unixEst))
	return nil
}

func (w *catalog) close() { w.first, w.last, w.lastEng = nil, nil, nil }
