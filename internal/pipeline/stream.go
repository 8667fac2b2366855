package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"kumquat/internal/obs"
	"kumquat/internal/unix"
)

// Mode selects one of the four execution configurations from the paper's
// measurement infrastructure. Every mode walks a region program of the
// plan's dataflow graph; a mode is a setting of that one walker: which
// program, which parallelism degree, and which regions may run live.
type Mode int

const (
	// ModeOptimized is T_k: the optimized program (fused regions, elided
	// and merge-pushed combines, Theorem 5 splits) at k. Regions that can
	// stream overlap through pipes while the stream is live; WithFuse(false)
	// walks the same program with the three rewrites disabled.
	ModeOptimized Mode = iota
	// ModeUnoptimized is u_k: the unoptimized program (one region per
	// stage, every exit a combine) at k; stage boundaries are barriers.
	ModeUnoptimized
	// ModeSerial is u_1: the unoptimized program at k = 1.
	ModeSerial
	// ModePipelined is T_orig: the unoptimized program at k = 1 with every
	// region run live, connected by pipes — Unix-style overlap and no data
	// parallelism.
	ModePipelined
)

func (m Mode) String() string {
	switch m {
	case ModeOptimized:
		return "optimized"
	case ModeUnoptimized:
		return "unoptimized"
	case ModeSerial:
		return "serial"
	case ModePipelined:
		return "pipelined"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// StageMetrics records one stage's execution measurements for the run
// report: wall time, stream volume, and how the stage actually ran.
type StageMetrics struct {
	Spec     string
	Wall     time.Duration
	BytesIn  int64
	BytesOut int64
	// CombineWall is the portion of Wall spent recombining the k chunk
	// outputs (zero for unchunked, eliminated-combiner and streamed
	// stages) — the combine plane's share of the stage.
	CombineWall time.Duration
	// Chunks is the number of parallel instances the stage ran as
	// (0 when the stage was not chunked).
	Chunks int
	// Streamed marks stages that processed their input incrementally
	// through a pipe instead of materializing it.
	Streamed bool
}

// stageError tags a failure with the stage it originated from, so that
// downstream stages reading a poisoned pipe can recognize an upstream
// failure passing through and not re-report it.
type stageError struct {
	spec string
	err  error
}

func (e *stageError) Error() string { return fmt.Sprintf("pipeline: stage %q: %v", e.spec, e.err) }
func (e *stageError) Unwrap() error { return e.err }

// workerPool bounds the number of in-flight chunk executions to the
// machine's parallelism. One pool is shared across all stages of an
// Execute call, so asking for k far beyond the hardware queues the excess
// chunks instead of oversubscribing the scheduler.
type workerPool struct {
	sem chan struct{}
}

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	return &workerPool{sem: make(chan struct{}, n)}
}

func (wp *workerPool) acquire(ctx context.Context) error {
	select {
	case wp.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (wp *workerPool) release() { <-wp.sem }

// countReader / countWriter thread byte accounting through a live
// region without copying. The region's goroutine owns the counts; the
// walker reads them only after the goroutine has finished.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// asyncReader decouples an external source from the executor: the
// source's Read runs in a helper goroutine, so cancellation unblocks the
// executor even while the source is quiescent (a silent terminal, an idle
// socket). If the source is mid-Read at cancellation, the helper parks
// until that Read returns and then exits, discarding the data — the
// unavoidable residue of interrupting a blocking io.Reader.
type asyncReader struct {
	ctx     context.Context
	r       io.Reader
	res     chan asyncChunk
	pending []byte
	err     error
	started bool
}

type asyncChunk struct {
	data []byte
	err  error
}

func newAsyncReader(ctx context.Context, r io.Reader) *asyncReader {
	return &asyncReader{ctx: ctx, r: r, res: make(chan asyncChunk)}
}

func (ar *asyncReader) Read(p []byte) (int, error) {
	for {
		if len(ar.pending) > 0 {
			n := copy(p, ar.pending)
			ar.pending = ar.pending[n:]
			return n, nil
		}
		if ar.err != nil {
			return 0, ar.err
		}
		if !ar.started {
			ar.started = true
			go func() {
				// One reusable read buffer; each chunk handed off is a
				// right-sized copy, so ownership transfers to the consumer
				// and short reads (line-buffered stdin) don't cost 32 KiB
				// of garbage apiece.
				buf := make([]byte, 32*1024)
				for {
					n, err := ar.r.Read(buf)
					chunk := make([]byte, n)
					copy(chunk, buf[:n])
					select {
					case ar.res <- asyncChunk{chunk, err}:
						if err != nil {
							return
						}
					case <-ar.ctx.Done():
						return
					}
				}
			}()
		}
		select {
		case ch := <-ar.res:
			ar.pending = ch.data
			ar.err = ch.err // sticky; surfaced once pending drains
		case <-ar.ctx.Done():
			ar.err = ar.ctx.Err()
			return 0, ar.err
		}
	}
}

// liveness says which regions of a walk may run live: in their own
// goroutine, reading the stream through a pipe as it is produced.
type liveness int

const (
	// liveNone drains a live source at the first region and runs every
	// region materialized (the barriered unoptimized and serial modes).
	liveNone liveness = iota
	// liveStreamable runs a region live when the stream reaching it is
	// live and the region can stream; a whole-stream region drains the
	// stream and the walk continues materialized (optimized mode).
	liveStreamable
	// liveAll runs every region live, whole-stream ones buffering inside
	// their goroutine (pipelined mode).
	liveAll
)

// executor carries one Execute call: the mode's settings, and the state
// of the walk over the plan's program (see runGraph).
type executor struct {
	p   *Plan
	env *unix.Env
	k   int
	// liveRegions selects which regions run live (the mode's setting).
	liveRegions liveness
	// external marks the source as a caller-supplied stdin reader whose
	// Read may block indefinitely; such sources are live, read through an
	// asyncReader so cancellation doesn't hang the executor.
	external bool
	pool     *workerPool
	// combineWorkers bounds the tree combine's concurrency (the §3.5
	// combine plane). It defaults to the chunk pool's size so combine
	// parallelism matches execution parallelism.
	combineWorkers int
	// fuse selects the optimized program for ModeOptimized (default on;
	// see WithFuse).
	fuse bool
	// runInfo, when non-nil, receives the run's region metrics and
	// applied rewrites (see WithRunInfo).
	runInfo *RunInfo
	// runner, when non-nil, runs the chunks of the stages it takes in
	// place of the in-process pool (see WithChunkRunner).
	runner ChunkRunner

	// ctx is the caller's context with a cancel of the executor's own,
	// which the teardown uses to unblock live regions.
	ctx    context.Context
	cancel context.CancelFunc

	// The stream between regions; exactly one form is current.
	data    string
	chunks  []string // non-nil while the stream is split
	src     io.Reader
	srcLive bool // src is live, not a lazy merge
	// ingest marks data as still being the registered input file, whose
	// shared line index replaces a byte scan when splitting it.
	ingest bool

	// rms and fails hold each region's metrics and, for a live region,
	// its own failure; live regions write theirs before wg is done.
	rms   []RegionMetrics
	fails []error
	pipes []*io.PipeReader
	wg    sync.WaitGroup
}

// ExecOpt tunes one Execute call beyond the mode/k pair.
type ExecOpt func(*executor)

// WithCombineWorkers bounds the concurrency of the tree-reduction
// combine plane; n <= 0 keeps the default (the chunk worker pool's
// size). 1 selects the sequential tree, which still beats the left fold
// on copied bytes for boundary-local combiners.
func WithCombineWorkers(n int) ExecOpt {
	return func(ex *executor) {
		if n > 0 {
			ex.combineWorkers = n
		}
	}
}

// combine recombines a parallel stage's chunk outputs through the
// stage's synthesized combiner on the tree-reduction plane, returning
// the combine's share of the region wall.
func (ex *executor) combine(ctx context.Context, sp *StagePlan, outs []string) (string, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "combine")
	span.AttrInt("parts", int64(len(outs)))
	start := time.Now()
	v, err := sp.Synth.Combiner.CombineKTree(outs, ex.combineWorkers)
	wall := time.Since(start)
	span.End()
	if err != nil {
		return "", wall, fmt.Errorf("pipeline: stage %q combine: %w", sp.Spec, err)
	}
	return v, wall, nil
}

// Execute runs the plan in the given mode with k-way data parallelism,
// reading the pipeline's input from stdin (when the plan has no input
// file) and writing the final output stream to out. It returns per-stage
// execution metrics alongside any error; cancellation of ctx aborts every
// mode promptly and returns ctx.Err(). Every mode walks a program of the
// plan (see Mode). Live-region goroutines are always reaped before
// returning; the one residue of cancellation is a single parked helper
// when the external stdin reader is blocked mid-Read — it exits as soon
// as that Read returns, as any io.Reader demands.
func (p *Plan) Execute(ctx context.Context, env *unix.Env, stdin io.Reader, out io.Writer, mode Mode, k int, opts ...ExecOpt) ([]StageMetrics, error) {
	ex := &executor{
		p:        p,
		env:      env,
		k:        k,
		external: p.InputFile == "" && stdin != nil && !inMemoryReader(stdin),
		fuse:     true,
	}
	for _, opt := range opts {
		opt(ex)
	}
	switch mode {
	case ModeOptimized:
		ex.liveRegions = liveStreamable
	case ModeUnoptimized:
	case ModeSerial:
		ex.k = 1
	case ModePipelined:
		ex.k, ex.liveRegions = 1, liveAll
	default:
		return nil, fmt.Errorf("pipeline: unknown execution mode %v", mode)
	}
	ex.ctx, ex.cancel = context.WithCancel(ctx)
	// Cap in-flight chunk executions at the machine's parallelism: with
	// k > GOMAXPROCS the extra chunks wait for a pool slot.
	poolSize := max(1, min(ex.k, runtime.GOMAXPROCS(0)))
	ex.pool = newWorkerPool(poolSize)
	if ex.combineWorkers == 0 {
		ex.combineWorkers = poolSize
	}
	ms, err := ex.runGraph(p.program(mode, ex.fuse), mode == ModeOptimized && ex.fuse, stdin, out)
	// Cancellation dominates: whatever secondary failure the teardown
	// produced (poisoned pipes, aborted chunk runs), the caller asked to
	// stop and gets ctx.Err().
	if err != nil && ctx.Err() != nil {
		return ms, ctx.Err()
	}
	return ms, err
}

// inMemoryReader reports whether r reads from memory already held by the
// caller (a strings.Reader stdin): such input is materialized, never
// blocks, and needs neither async decoupling nor stream-preserving
// execution.
func inMemoryReader(r io.Reader) bool {
	switch r.(type) {
	case *strings.Reader, *bytes.Reader, *bytes.Buffer:
		return true
	}
	return false
}

func totalLen(ss []string) int64 {
	var n int64
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}
