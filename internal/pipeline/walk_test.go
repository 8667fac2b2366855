package pipeline

import (
	"context"
	"io"
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/dataflow"
)

// heapSampledStdin is a live stdin of a fixed size: alternating "light"
// and "dark" lines behind an opaque type, sampling the heap once per MiB
// it produces so a test can bound the executor's peak memory.
type heapSampledStdin struct {
	block     string
	off       int
	remaining int64
	unsampled int64
	peak      uint64
}

func newHeapSampledStdin(size int64) *heapSampledStdin {
	// 32-byte units keep every read boundary-aligned with the block.
	return &heapSampledStdin{
		block:     strings.Repeat("light word here\ndark word there\n", 1024),
		remaining: size,
	}
}

func (g *heapSampledStdin) Read(p []byte) (int, error) {
	if g.remaining <= 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(int64(len(p)), g.remaining)], g.block[g.off:])
	g.off = (g.off + n) % len(g.block)
	g.remaining -= int64(n)
	if g.unsampled += int64(n); g.unsampled >= 1<<20 {
		g.unsampled = 0
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		g.peak = max(g.peak, ms.HeapInuse)
	}
	return n, nil
}

// countingSink counts the bytes written to it.
type countingSink struct{ n int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// TestLiveStdinBoundedMemory: a 64 MiB live stdin through a line-mapper
// pipeline streams in bounded memory in the optimized and pipelined
// modes. A walk that materialized the stream would hold at least its
// 64 MiB; streamed, the peak heap stays a few MiB.
func TestLiveStdinBoundedMemory(t *testing.T) {
	const (
		size    = 64 << 20
		maxHeap = 16 << 20
	)
	syn := newSynth()
	plan := compilePlan(t, syn, "grep light | cut -c 1-5\n")
	for _, mode := range []Mode{ModeOptimized, ModePipelined} {
		runtime.GC()
		in := newHeapSampledStdin(size)
		var out countingSink
		if _, err := plan.Execute(context.Background(), syn.Env, in, &out, mode, 4); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if want := int64(size / 32 * 6); out.n != want { // "light\n" per 32-byte unit
			t.Errorf("%v: wrote %d bytes, want %d", mode, out.n, want)
		}
		if in.peak == 0 || in.peak >= maxHeap {
			t.Errorf("%v: peak HeapInuse %.1f MiB, want under %d MiB", mode, float64(in.peak)/(1<<20), maxHeap>>20)
		}
		t.Logf("%v: peak HeapInuse %.1f MiB", mode, float64(in.peak)/(1<<20))
	}
}

// TestMergeExitOnNonSortStageNamesSpec: a program whose merge-stream exit
// sits on a stage that is not a sort must fail with that stage's spec in
// the error, not the exit kind.
func TestMergeExitOnNonSortStageNamesSpec(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("in.txt", "b\na\nc\n")
	plan := compilePlan(t, syn, "cat in.txt | tr a-z A-Z | grep -c A\n")
	plan.Program = &dataflow.Program{
		Graph: plan.Graph,
		Regions: []*dataflow.Region{
			{Nodes: []int{0}, Parallel: true, Exit: dataflow.ExitMerge},
			{Nodes: []int{1}, Parallel: true},
		},
	}
	_, err := plan.Execute(context.Background(), syn.Env, nil, io.Discard, ModeOptimized, 2)
	if err == nil {
		t.Fatal("merge-stream exit on a non-sort stage succeeded")
	}
	if !strings.Contains(err.Error(), `"tr a-z A-Z"`) {
		t.Errorf("error does not name the stage spec: %v", err)
	}
}
