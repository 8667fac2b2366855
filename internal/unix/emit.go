package unix

import "kumquat/internal/textio"

// EmitFunc receives one output line (without terminator). The string may
// be a transient view into an emitter-owned scratch buffer: it is valid
// only until the emitter's next EmitLine call with the same scratch, so
// receivers must finish with it (copy it out or complete all processing)
// before feeding the emitter another line.
type EmitFunc func(line string)

// LineEmitter is the allocation-free fast path over LineMapper: EmitLine
// maps one input line and hands each output line to emit, avoiding the
// per-line []string and result-string allocations MapLine pays. Output
// lines that differ from the input are built in the caller-owned scratch
// buffer and emitted as transient views (see EmitFunc); lines that pass
// through unchanged are emitted as-is. Callers running chunks in
// parallel must give each goroutine its own scratch.
type LineEmitter interface {
	LineMapper
	// EmitLine maps one input line (without terminator) to zero or more
	// output lines, passing each to emit in order. scratch is grown as
	// needed and retained across calls for reuse.
	EmitLine(line string, scratch *[]byte, emit EmitFunc)
}

// LineSinker is a line mapper that composes its per-line pass once per
// stream: NewSink returns a function that maps one input line and hands
// each output line to emit, owning whatever scratch state that stream
// needs. The streaming path prefers it over MapLine — a fused chain of
// emitters composes once, not per line.
type LineSinker interface {
	LineMapper
	// NewSink returns the stream's per-line function over emit.
	NewSink(emit EmitFunc) EmitFunc
}

// AsLineEmitter probes a command's zero-allocation line-mapping
// capability. The gate is AsLineMapper's: a command whose flags make it
// line-dependent (tr -s, grep -c, sed Nq) is not an emitter either.
func AsLineEmitter(c Command) (LineEmitter, bool) {
	lm, ok := AsLineMapper(c)
	if !ok {
		return nil, false
	}
	le, ok := lm.(LineEmitter)
	return le, ok
}

// emitView hands buf to emit as a transient string view after storing it
// back through scratch so the grown capacity is reused.
func emitView(buf []byte, scratch *[]byte, emit EmitFunc) {
	*scratch = buf
	emit(textio.View(buf))
}

// EmitLine implements LineEmitter for pure-translate tr: lines with no
// affected byte pass through untouched; others are rewritten into
// scratch in one pass. A byte translated to '\n' splits the line, as in
// MapLine.
func (t *trCmd) EmitLine(line string, scratch *[]byte, emit EmitFunc) {
	changed := false
	for i := 0; i < len(line); i++ {
		if t.affected[line[i]] {
			changed = true
			break
		}
	}
	if !changed {
		emit(line)
		return
	}
	buf := (*scratch)[:0]
	split := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if t.deleteSet[c] {
			continue
		}
		if t.translated[c] {
			c = t.translate[c]
			if c == '\n' {
				split = true
			}
		}
		buf = append(buf, c)
	}
	*scratch = buf
	if !split {
		emit(textio.View(buf))
		return
	}
	start := 0
	for i := 0; i <= len(buf); i++ {
		if i == len(buf) || buf[i] == '\n' {
			emit(textio.View(buf[start:i]))
			start = i + 1
		}
	}
}

// EmitLine implements LineEmitter for filtering grep: a kept line is
// emitted as-is, a dropped one produces nothing. No allocation either
// way.
func (g *grepCmd) EmitLine(line string, _ *[]byte, emit EmitFunc) {
	if g.keep(line) {
		emit(line)
	}
}

// EmitLine implements LineEmitter for sed substitutions. Lines without a
// match pass through unchanged (ReplaceFirst already returns its input
// then; s///g gets an explicit match probe first, trading a second scan
// of matching lines for an allocation-free pass over the rest).
func (s *sedCmd) EmitLine(line string, _ *[]byte, emit EmitFunc) {
	if s.global {
		if !s.re.MatchString(line) {
			emit(line)
			return
		}
		emit(s.re.ReplaceAll(line, s.repl))
		return
	}
	emit(s.re.ReplaceFirst(line, s.repl))
}

// EmitLine implements LineEmitter for cut. A single contiguous -c range
// is a substring view of the input; everything else is assembled in
// scratch. Field mode passes delimiter-free lines through whole, as Run
// does.
func (c *cutCmd) EmitLine(line string, scratch *[]byte, emit EmitFunc) {
	if c.chars {
		if len(c.ranges) == 1 {
			lo, hi := c.ranges[0].lo-1, c.ranges[0].hi
			if lo >= len(line) {
				emit("")
				return
			}
			if hi > len(line) {
				hi = len(line)
			}
			emit(line[lo:hi])
			return
		}
		buf := (*scratch)[:0]
		for i := 0; i < len(line); i++ {
			if c.selected(i + 1) {
				buf = append(buf, line[i])
			}
		}
		emitView(buf, scratch, emit)
		return
	}
	if !hasByte(line, c.delim) {
		emit(line)
		return
	}
	buf := (*scratch)[:0]
	fs := textio.FieldsByte(line, c.delim)
	field, wrote := 0, false
	for {
		f, ok := fs.Next()
		if !ok {
			break
		}
		field++
		if !c.selected(field) {
			continue
		}
		if wrote {
			buf = append(buf, c.delim)
		}
		buf = append(buf, f...)
		wrote = true
	}
	emitView(buf, scratch, emit)
}

func hasByte(s string, b byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return true
		}
	}
	return false
}

// EmitLine implements LineEmitter for stdin cat: the identity map.
func (c *catCmd) EmitLine(line string, _ *[]byte, emit EmitFunc) {
	emit(line)
}

// EmitLine implements LineEmitter for rev: the reversed line is built in
// scratch.
func (r *revCmd) EmitLine(line string, scratch *[]byte, emit EmitFunc) {
	buf := append((*scratch)[:0], line...)
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	emitView(buf, scratch, emit)
}
