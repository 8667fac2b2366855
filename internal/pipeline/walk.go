package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"kumquat/internal/dataflow"
	"kumquat/internal/obs"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// RegionMetrics records one program region's execution: which stages it
// covered, how it ran, and the region-level combine share. Inside a fused
// region there is no per-stage combine to measure (the rewrite removed
// it), so the combine share is reported per region.
type RegionMetrics struct {
	// Stages holds the member stage indices, in pipeline order.
	Stages []int
	// Fused marks multi-stage regions run as one composed per-chunk pass.
	Fused bool
	// Exit names the region's output disposition (combine, split, concat,
	// merge-stream).
	Exit string
	// Rules names the optimizer rewrites that fired on this region.
	Rules []string
	// Wall is the region's wall-clock activity time.
	Wall time.Duration
	// CombineWall is the share of Wall spent recombining the region's
	// chunk outputs (zero when the exit elided or deferred the combine).
	CombineWall time.Duration
	// BytesIn and BytesOut measure the region's stream volume.
	BytesIn, BytesOut int64
	// Chunks is the number of parallel instances the region ran as.
	Chunks int
	// Streamed marks regions that consumed their input incrementally — a
	// live stream or a lazily merged one — instead of materializing it.
	Streamed bool
}

// RunInfo is the walker's run report, filled in when an Execute call
// carries a WithRunInfo option: which program ran, the rewrites it
// applied, and the per-region metrics.
type RunInfo struct {
	// Fused reports that the run walked the optimized program (Optimized
	// mode with WithFuse on); the other settings walk the graph with the
	// rewrites disabled.
	Fused bool
	// Rewrites counts the optimizer rewrites applied by the program that
	// ran, per rule name.
	Rewrites map[string]int
	// Regions holds one entry per region the walk reached, in order.
	Regions []RegionMetrics
}

// WithFuse selects the program an optimized-mode run walks (default on):
// on walks the optimized program, off walks it with the three dataflow
// rewrites disabled and Theorem 5 splits kept — the -fuse=off ablation
// the benchmarks and the conformance plane compare against.
func WithFuse(on bool) ExecOpt {
	return func(ex *executor) { ex.fuse = on }
}

// WithRunInfo directs the executor to fill info with the run's region
// metrics and applied rewrites.
func WithRunInfo(info *RunInfo) ExecOpt {
	return func(ex *executor) { ex.runInfo = info }
}

// ChunkRunner runs a stage's chunks in place of the in-process worker
// pool — the cluster coordinator's remote shards. Under a runner the
// walker chunks only the stages the runner takes; every other stage runs
// unsharded in-process.
type ChunkRunner interface {
	// Span names the span the walker opens around each region it runs.
	Span() string
	// Takes reports whether the runner executes the stage's chunks.
	Takes(sp *StagePlan) bool
	// RunChunks runs the stage over each chunk, returning the outputs in
	// chunk order.
	RunChunks(ctx context.Context, sp *StagePlan, chunks []string) ([]string, error)
}

// WithChunkRunner directs the walker to run chunks through r.
func WithChunkRunner(r ChunkRunner) ExecOpt {
	return func(ex *executor) { ex.runner = r }
}

// regionRun returns the region's executable: the composed fused mapper,
// or the single member stage's command.
func regionRun(p *Plan, r *dataflow.Region) unix.Command {
	if r.Fused {
		return r.Mapper
	}
	return p.Stages[r.Nodes[0]].Cmd
}

// chunked reports whether the region runs chunk-parallel over a
// materialized stream.
func (ex *executor) chunked(r *dataflow.Region) bool {
	if !r.Parallel || ex.k < 2 {
		return false
	}
	return ex.runner == nil || (!r.Fused && ex.runner.Takes(ex.p.Stages[r.Nodes[0]]))
}

// runChunks executes the region's command on each chunk: through the
// chunk runner when one is set, otherwise concurrently on the shared
// worker pool.
func (ex *executor) runChunks(ctx context.Context, r *dataflow.Region, chunks []string) ([]string, error) {
	if ex.runner != nil {
		return ex.runner.RunChunks(ctx, ex.p.Stages[r.Nodes[0]], chunks)
	}
	cmd := regionRun(ex.p, r)
	_, span := obs.StartSpan(ctx, "chunks")
	span.AttrInt("n", int64(len(chunks)))
	defer span.End()
	outs := make([]string, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		if err := ex.pool.acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ex.pool.release()
			outs[i], errs[i] = cmd.Run(chunks[i])
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %q chunk %d: %w", cmd.Spec(), i, err)
		}
	}
	return outs, nil
}

// runGraph is the executor: it walks prog region by region under the
// mode's settings, then writes the final stream to out. fused records
// that prog is the optimized program. The stream between regions takes
// one of three forms:
//
//   - materialized: the whole stream is in data (file inputs start here,
//     and buffering or combining returns here). Parallel regions split it
//     into zero-copy chunk views and run k instances — the paper's T_k.
//   - split: a split exit left it as k chunk views in chunks; the next
//     (parallel) region consumes them directly (Figure 5c).
//   - reader: src is either live — a caller's stdin or a region running
//     in its own goroutine — or a lazy k-way merge left by a merge-stream
//     exit. Regions allowed to run live overlap through pipes; a lazy
//     merge is consumed in place; anything else drains the stream and the
//     walk continues materialized.
func (ex *executor) runGraph(prog *dataflow.Program, fused bool, stdin io.Reader, out io.Writer) ([]StageMetrics, error) {
	ex.rms = make([]RegionMetrics, len(prog.Regions))
	ex.fails = make([]error, len(prog.Regions))
	walked := 0
	err := ex.source(stdin)
	for ri, r := range prog.Regions {
		if err != nil {
			break
		}
		walked++
		err = ex.region(ri, r, ri == len(prog.Regions)-1)
	}
	if err == nil {
		err = ex.emit(out)
	}
	err = ex.finish(err)

	metrics := make([]StageMetrics, len(ex.p.Stages))
	for i, sp := range ex.p.Stages {
		metrics[i].Spec = sp.Spec
	}
	for ri := range walked {
		attribute(metrics, prog.Regions[ri], &ex.rms[ri])
	}
	if info := ex.runInfo; info != nil {
		info.Fused = fused
		info.Rewrites = make(map[string]int, len(prog.Fired))
		for r, n := range prog.Fired {
			info.Rewrites[string(r)] = n
		}
		info.Regions = ex.rms[:walked]
	}
	return metrics, err
}

// source resolves the pipeline's input into the walk's initial stream.
func (ex *executor) source(stdin io.Reader) error {
	switch {
	case ex.p.InputFile != "":
		data, err := ex.env.FS.Read(ex.p.InputFile)
		if err != nil {
			return err
		}
		ex.data, ex.ingest = data, true
	case stdin == nil:
	case ex.external:
		ex.src, ex.srcLive = newAsyncReader(ex.ctx, stdin), true
		return nil
	case ex.liveRegions == liveAll:
		ex.src, ex.srcLive = stdin, true
		return nil
	default:
		// In-memory stdin is already materialized. The read still goes
		// through ContextReader so a cancelled ctx aborts the drain.
		buf, err := io.ReadAll(unix.ContextReader(ex.ctx, stdin))
		if err != nil {
			return err
		}
		ex.data = textio.View(buf)
	}
	if ex.liveRegions == liveAll {
		ex.src, ex.srcLive = strings.NewReader(ex.data), true
	}
	return nil
}

// region runs one region over the current stream and leaves its output
// as the new stream.
func (ex *executor) region(ri int, r *dataflow.Region, last bool) error {
	if err := ex.ctx.Err(); err != nil {
		return err
	}
	cmd := regionRun(ex.p, r)
	rm := &ex.rms[ri]
	rm.Fused, rm.Exit, rm.Stages = r.Fused, r.Exit.String(), append([]int(nil), r.Nodes...)
	for _, rule := range r.Rules {
		rm.Rules = append(rm.Rules, string(rule))
	}
	runLive := ex.src != nil && ex.srcLive &&
		(ex.liveRegions == liveAll || ex.liveRegions == liveStreamable && r.Streamable)
	rctx, span := ex.startSpan(r, cmd, rm, runLive)
	start := time.Now()
	if runLive {
		ex.goLive(ri, span, cmd, start)
		return nil
	}
	defer span.End()
	defer func() { rm.Wall = time.Since(start) }()
	if ex.src != nil && !ex.srcLive {
		// A merge-stream exit: consume the lazy k-way merge incrementally
		// (the optimizer guarantees this region streams) and materialize
		// the region's own output. Any further exit is moot — the output
		// is the true stream.
		rm.Streamed = true
		var sb strings.Builder
		counted := &countReader{r: unix.ContextReader(ex.ctx, ex.src)}
		if err := unix.Exec(ex.ctx, cmd, counted, &sb); err != nil {
			return fmt.Errorf("pipeline: stage %q: %w", cmd.Spec(), err)
		}
		ex.data, ex.src = sb.String(), nil
		rm.BytesIn, rm.BytesOut = counted.n, int64(len(ex.data))
		return nil
	}
	if ex.src != nil {
		// A live stream reaching a region that may not run live: drain
		// it (the drain counts toward the region's wall) and continue
		// materialized.
		buf, err := io.ReadAll(unix.ContextReader(ex.ctx, ex.src))
		if err != nil {
			return err
		}
		ex.data, ex.src, ex.srcLive = textio.View(buf), nil, false
	}
	ingest := ex.ingest
	ex.ingest = false
	var chunks []string
	switch {
	case ex.chunks != nil:
		// A split exit: the chunk views feed this (parallel) region
		// directly, no re-split.
		chunks, ex.chunks = ex.chunks, nil
	case ex.chunked(r) && ingest:
		// The registered input's shared line index replaces the boundary
		// scan (computed once per corpus, shared across stages, modes and
		// requests).
		seq, err := ex.env.FS.ReadSeq(ex.p.InputFile)
		if err != nil {
			return err
		}
		chunks = seq.Chunk(ex.k)
	case ex.chunked(r):
		chunks = textio.ChunkLines(ex.data, ex.k)
	default:
		rm.BytesIn = int64(len(ex.data))
		next, err := cmd.Run(ex.data)
		if err != nil {
			return fmt.Errorf("pipeline: stage %q: %w", cmd.Spec(), err)
		}
		ex.data = next
		rm.BytesOut = int64(len(next))
		return nil
	}
	rm.BytesIn = totalLen(chunks)
	outs, err := ex.runChunks(rctx, r, chunks)
	if err != nil {
		return err
	}
	rm.Chunks = len(chunks)
	return ex.exit(rctx, r, last, outs, rm)
}

// startSpan opens the region's span: "region" for a fused region, the
// chunk runner's span name under a runner, "stage" otherwise.
func (ex *executor) startSpan(r *dataflow.Region, cmd unix.Command, rm *RegionMetrics, live bool) (context.Context, *obs.Span) {
	name := "stage"
	switch {
	case r.Fused:
		name = "region"
	case ex.runner != nil:
		name = ex.runner.Span()
	}
	ctx, span := obs.StartSpan(ex.ctx, name)
	if span.Enabled() {
		span.Attr("spec", cmd.Spec())
		span.Attr("exit", rm.Exit)
		if len(rm.Rules) > 0 {
			span.Attr("rules", strings.Join(rm.Rules, ","))
		}
		if r.Fused {
			span.AttrInt("stages", int64(len(r.Nodes)))
		}
		if live {
			span.Attr("streamed", "true")
		}
	}
	return ctx, span
}

// goLive starts the region in its own goroutine, reading the live stream
// and writing its output into a pipe that becomes the new live stream.
// The region's span ends when its stream drains, so its duration covers
// the overlap. A failure closes the pipe with a stageError, so
// downstream regions pass it through instead of re-reporting it.
func (ex *executor) goLive(ri int, span *obs.Span, cmd unix.Command, start time.Time) {
	rm := &ex.rms[ri]
	rm.Streamed = unix.CanStream(cmd)
	pr, pw := io.Pipe()
	ex.pipes = append(ex.pipes, pr)
	cr := &countReader{r: ex.src}
	ex.wg.Add(1)
	go func() {
		defer ex.wg.Done()
		defer span.End()
		cw := &countWriter{w: pw}
		err := unix.Exec(ex.ctx, cmd, cr, cw)
		rm.Wall = time.Since(start)
		rm.BytesIn, rm.BytesOut = cr.n, cw.n
		if err != nil {
			var up *stageError
			if !errors.As(err, &up) {
				up = &stageError{spec: cmd.Spec(), err: err}
				ex.fails[ri] = up
			}
			pw.CloseWithError(up)
			return
		}
		pw.Close()
	}()
	ex.src, ex.srcLive = pr, true
}

// exit applies the region's exit to its chunk outputs, leaving the new
// stream in the executor. The last region always combines: a single
// output stream must emerge.
func (ex *executor) exit(ctx context.Context, r *dataflow.Region, last bool, outs []string, rm *RegionMetrics) error {
	exit := r.Exit
	if last {
		exit = dataflow.ExitCombine
	}
	sp := ex.p.Stages[r.Nodes[len(r.Nodes)-1]]
	switch exit {
	case dataflow.ExitSplit:
		ex.chunks = outs
		rm.BytesOut = totalLen(outs)
	case dataflow.ExitConcat:
		ex.data = strings.Join(outs, "")
		rm.BytesOut = int64(len(ex.data))
	case dataflow.ExitMerge:
		sc, ok := sp.Cmd.(*unix.SortCmd)
		if !ok {
			return fmt.Errorf("pipeline: merge-stream exit on non-sort stage %q", sp.Spec)
		}
		ex.src, ex.srcLive = sc.MergeReader(outs...), false
		rm.BytesOut = totalLen(outs)
	default:
		combined, wall, err := ex.combine(ctx, sp, outs)
		rm.CombineWall = wall
		if err != nil {
			return err
		}
		ex.data = combined
		rm.BytesOut = int64(len(combined))
	}
	return nil
}

// emit writes the final stream to out.
func (ex *executor) emit(out io.Writer) error {
	if ex.src != nil {
		_, err := io.Copy(out, unix.ContextReader(ex.ctx, ex.src))
		return err
	}
	_, err := io.WriteString(out, ex.data)
	return err
}

// finish tears down the live regions and settles the run's error. It
// cancels the executor's context and poisons every pipe, so regions
// still blocked on a read or write unwind (the poison is a stageError,
// which they pass through instead of reporting as their own), and waits
// for them all. Live regions' own failures come first, in region order;
// err follows unless one of them already reports it. Cancellations are
// not region failures: either the teardown caused them, or the caller
// cancelled and Execute reports ctx.Err() instead.
func (ex *executor) finish(err error) error {
	ex.cancel()
	poison := err
	if poison == nil {
		poison = io.ErrClosedPipe
	}
	var se *stageError
	if !errors.As(poison, &se) {
		poison = &stageError{spec: "<output sink>", err: poison}
	}
	for _, pr := range ex.pipes {
		pr.CloseWithError(poison)
	}
	ex.wg.Wait()
	var errs []error
	for _, f := range ex.fails {
		if f != nil && !errors.Is(f, context.Canceled) {
			errs = append(errs, f)
		}
	}
	if err != nil && !slices.ContainsFunc(errs, func(e error) bool { return errors.Is(err, e) || errors.Is(e, err) }) {
		errs = append(errs, err)
	}
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}

// attribute maps region metrics onto the per-stage metrics slice: shared
// figures (chunks, streamed) go to every member, stream volumes to the
// boundary stages, and the region wall to the first member — per-stage
// walls inside a fused region do not exist, which is the point of the
// fusion.
func attribute(metrics []StageMetrics, r *dataflow.Region, rm *RegionMetrics) {
	for _, id := range r.Nodes {
		metrics[id].Chunks = rm.Chunks
		metrics[id].Streamed = rm.Streamed
	}
	first, last := r.Nodes[0], r.Nodes[len(r.Nodes)-1]
	metrics[first].Wall = rm.Wall
	metrics[first].BytesIn = rm.BytesIn
	metrics[last].BytesOut = rm.BytesOut
	metrics[last].CombineWall = rm.CombineWall
}
