package dataflow

import (
	"strings"

	"kumquat/internal/unix"
)

// FusedMapper is a fused region's composed command: the member stages'
// line mappers applied depth-first per input line, producing in one pass
// over a chunk exactly the bytes the staged execution produces in
// len(mappers) passes — without materializing any intermediate stream.
//
// It implements unix.LineMapper and unix.LineSinker, so every execution
// surface (streaming via unix.Exec, chunk runs via Run) accepts it
// unchanged, and a streamed fused region composes its chain once.
type FusedMapper struct {
	spec    string
	mappers []unix.LineMapper
}

// NewFusedMapper composes the given line mappers (in stage order) under a
// fused(...) spec built from the stage specs.
func NewFusedMapper(specs []string, mappers []unix.LineMapper) *FusedMapper {
	return &FusedMapper{
		spec:    "fused(" + strings.Join(specs, " | ") + ")",
		mappers: mappers,
	}
}

// Spec returns the composed spec, e.g. "fused(tr A-Z a-z | grep light)".
func (f *FusedMapper) Spec() string { return f.spec }

// Len reports how many stages the mapper fuses.
func (f *FusedMapper) Len() int { return len(f.mappers) }

// MapLine maps one input line through the whole chain, collecting the
// terminal output lines. Line mappers are line-independent and
// order-preserving, so feeding each intermediate line onward immediately
// yields the same sequence as materializing each stage's full output.
func (f *FusedMapper) MapLine(line string) []string {
	var out []string
	f.collect(0, line, &out)
	return out
}

func (f *FusedMapper) collect(depth int, line string, out *[]string) {
	if depth == len(f.mappers) {
		*out = append(*out, line)
		return
	}
	for _, next := range f.mappers[depth].MapLine(line) {
		f.collect(depth+1, next, out)
	}
}

// Run executes the fused pass over a whole chunk: one scan of the input,
// one output builder, no intermediate streams. The chain is composed
// once per call into a single per-line function, so the executor can
// share one FusedMapper across parallel chunk goroutines; stages that
// implement unix.LineEmitter run allocation-free inside it (scratch
// reuse, transient views consumed depth-first before the next line).
func (f *FusedMapper) Run(input string) (string, error) {
	if input == "" {
		return "", nil
	}
	var b strings.Builder
	b.Grow(len(input))
	sink := f.NewSink(func(line string) {
		b.WriteString(line)
		b.WriteByte('\n')
	})
	rest := input
	for rest != "" {
		var line string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, ""
		}
		sink(line)
	}
	return b.String(), nil
}

// NewSink composes the stage chain backwards from emit into one
// per-line function, with scratch of its own, so each stream or chunk
// run composes its own sink. Every emitted line is fully processed by
// the downstream stages before the emitting stage sees the next one, so
// each emitter's transient scratch views stay valid exactly as long as
// they are needed.
func (f *FusedMapper) NewSink(emit unix.EmitFunc) unix.EmitFunc {
	sink := emit
	for d := len(f.mappers) - 1; d >= 0; d-- {
		next := sink
		if le, ok := unix.AsLineEmitter(f.mappers[d]); ok {
			scratch := new([]byte)
			sink = func(line string) { le.EmitLine(line, scratch, next) }
		} else {
			lm := f.mappers[d]
			sink = func(line string) {
				for _, out := range lm.MapLine(line) {
					next(out)
				}
			}
		}
	}
	return sink
}
