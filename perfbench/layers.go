package main

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// The standalone layer calls of the traced run: each layer measured from
// outside through its package's public functions.

// timeMedian runs f n times and returns the median duration.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return time.Duration(durMedian(ds, 1))
}

// measureTextio times the ingest layer on each corpus file: mapping it,
// indexing its lines, and splitting the index k ways. wallMS is the
// workload's median pass wall, the base of textio.index_share.
func measureTextio(r *runResult, paths []string, k int, wallMS float64) error {
	var mapD, indexD, chunkD time.Duration
	for _, path := range paths {
		var err error
		mapD += timeMedian(5, func() {
			var m *textio.Mapping
			if m, err = textio.MapFile(path); err == nil {
				m.Close()
			}
		})
		if err != nil {
			return err
		}
		m, err := textio.MapFile(path)
		if err != nil {
			return err
		}
		var seq textio.LineSeq
		indexD += timeMedian(3, func() { seq = textio.ScanBytes(m.Bytes()) })
		chunkD += timeMedian(200, func() { seq.Chunk(k) })
		m.Close()
	}
	indexMS := float64(indexD) / float64(time.Millisecond)
	r.sample("textio.map_ms", float64(mapD)/float64(time.Millisecond), 5)
	r.sample("textio.index_ms", indexMS, 3)
	r.set("textio.index_share", ratio(indexMS, wallMS))
	r.sample("textio.chunk_us", float64(chunkD)/float64(time.Microsecond), 200)
	return nil
}

// stageCost is one standalone unix.Exec of a stage on its real input.
type stageCost struct {
	wall           time.Duration
	bytes, lines   int64
	allocB, allocs uint64
}

// measureStage runs cmd through unix.Exec on in three times: the median
// wall and the last run's heap allocation.
func measureStage(ctx context.Context, cmd unix.Command, in string) (stageCost, error) {
	c := stageCost{bytes: int64(len(in)), lines: int64(strings.Count(in, "\n"))}
	var err error
	var before, after runtime.MemStats
	c.wall = timeMedian(3, func() {
		runtime.ReadMemStats(&before)
		if e := unix.Exec(ctx, cmd, strings.NewReader(in), io.Discard); e != nil {
			err = e
		}
		runtime.ReadMemStats(&after)
	})
	c.allocB = after.TotalAlloc - before.TotalAlloc
	c.allocs = after.Mallocs - before.Mallocs
	return c, err
}

// reportStage records a probed stage's unix.<label>.* metrics.
func reportStage(r *runResult, label string, c stageCost) {
	r.sample("unix."+label+".mb_s", ratio(float64(c.bytes)/1e6, c.wall.Seconds()), 3)
	r.set("unix."+label+".alloc_b_per_b", ratio(float64(c.allocB), float64(c.bytes)))
	r.set("unix."+label+".allocs_per_line", ratio(float64(c.allocs), float64(c.lines)))
}

// combineCost accumulates the combine plane's standalone cost.
type combineCost struct {
	wall, mergeWall time.Duration
	mergeBytes      int64
}

// measureCombine splits in k ways, runs cmd on each chunk and times
// recombining the chunk outputs through dsl.CombineKTree with the first
// candidate of comb whose domain holds every output — the dispatch the
// executor's combine plane performs.
func (cc *combineCost) measureCombine(cmd unix.Command, comb *synth.Combiner, in string, k int) error {
	chunks := textio.ChunkLines(in, k)
	outs := make([]string, len(chunks))
	for i, ch := range chunks {
		out, err := cmd.Run(ch)
		if err != nil {
			return err
		}
		outs[i] = out
	}
	env := &dsl.Env{RunF: cmd.Run}
	if sc, ok := cmd.(*unix.SortCmd); ok {
		env.Merge = sc
	} else if def, err := unix.Parse("sort", unix.DefaultEnv()); err == nil {
		env.Merge = def.(*unix.SortCmd)
	}
	start := time.Now()
	cand, err := combineK(env, comb.Candidates, outs, k)
	d := time.Since(start)
	if err != nil {
		return err
	}
	cc.wall += d
	if _, ok := cand.Op.(dsl.Merge); ok {
		cc.mergeWall += d
		for _, o := range outs {
			cc.mergeBytes += int64(len(o))
		}
	}
	return nil
}

// combineK dispatches outs to the first candidate whose domain contains
// every nonempty output, returning the candidate that combined them.
func combineK(env *dsl.Env, cands []dsl.Candidate, outs []string, workers int) (dsl.Candidate, error) {
	lastErr := errors.New("no candidate accepts the chunk outputs")
	for _, cand := range cands {
		ok := true
		switch cand.Op.(type) {
		case dsl.Rerun, dsl.Concat:
		default:
			for _, o := range outs {
				if o != "" && !cand.Op.InDomain(env, o) {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		if _, err := dsl.CombineKTree(env, cand, outs, workers); err != nil {
			lastErr = err
			continue
		}
		return cand, nil
	}
	return dsl.Candidate{}, lastErr
}

// reportCombine records the dsl.* metrics; wallMS is the median pass wall.
func reportCombine(r *runResult, cc combineCost, wallMS float64) {
	ms := float64(cc.wall) / float64(time.Millisecond)
	r.set("dsl.combine_ms", ms)
	r.set("dsl.merge_mb_s", ratio(float64(cc.mergeBytes)/1e6, cc.mergeWall.Seconds()))
	r.set("dsl.combine_share", ratio(ms, wallMS))
}

// synthCost is the synthesis layer's work over a set of commands.
type synthCost struct {
	cold             time.Duration
	cmd              []float64 // per-command synthesis ms
	space, plausible int
	warm             []time.Duration
	hits, lookups    int64
}

// add records one command's cold synthesis result.
func (sc *synthCost) add(res *synth.Result) {
	if res == nil {
		return
	}
	sc.cmd = append(sc.cmd, float64(res.Duration)/float64(time.Millisecond))
	sc.space += res.Space.Total()
	sc.plausible += len(res.Plausible)
}

// measureWarm times warm lookups of specs on eng.
func (sc *synthCost) measureWarm(ctx context.Context, eng *synth.Engine, specs []string) {
	for rep := 0; rep < 20; rep++ {
		for _, spec := range specs {
			start := time.Now()
			eng.SynthesizeTier(ctx, spec) //nolint:errcheck // only the lookup time matters
			sc.warm = append(sc.warm, time.Since(start))
		}
	}
}

// measureSynth cold-synthesizes specs in a fresh engine with an empty,
// memory-only cache, then times warm lookups.
func measureSynth(ctx context.Context, specs []string, seed int64) synthCost {
	eng := synth.New(unix.DefaultEnv(), synth.Options{Seed: seed})
	var sc synthCost
	start := time.Now()
	for _, spec := range specs {
		res, _, _ := eng.SynthesizeTier(ctx, spec)
		sc.add(res)
	}
	sc.cold = time.Since(start)
	sc.measureWarm(ctx, eng, specs)
	return sc
}

// report records the synth.* metrics.
func (sc synthCost) report(r *runResult) {
	r.set("synth.cold_s", sc.cold.Seconds())
	r.sample("synth.cmd_p50_ms", quantile(sc.cmd, 0.5), len(sc.cmd))
	r.sample("synth.cmd_p90_ms", quantile(sc.cmd, 0.9), len(sc.cmd))
	r.set("synth.space_total", float64(sc.space))
	r.set("synth.plausible_total", float64(sc.plausible))
	r.set("synth.candidates_per_s", ratio(float64(sc.space), sc.cold.Seconds()))
	r.sample("synth.warm_us", durMedian(sc.warm, time.Microsecond), len(sc.warm))
	r.set("synth.cache_hit_frac", ratio(float64(sc.hits), float64(sc.lookups)))
}

// carveUnix moves the estimated unix work and the sink time out of the
// pipeline layer's self time. The executor's spans cover the commands'
// per-line work (fused members have no spans of their own), so the unix
// share is estimated from the standalone unix.Exec walls: each stage's
// serial wall, divided by k where the stage ran chunk-parallel.
func carveUnix(unixEst time.Duration) func(p *passResult, a *attribution) {
	return func(p *passResult, a *attribution) {
		pipe := a.layers["pipeline"]
		e := min(p.emit, pipe)
		u := min(unixEst, pipe-e)
		a.layers["unix"] = u
		a.layers["emit"] = e
		a.layers["pipeline"] = pipe - u - e
	}
}

// inprocLayers are the layers an in-process pass is split across.
var inprocLayers = []string{"textio", "unix", "pipeline", "dsl", "synth", "emit"}
