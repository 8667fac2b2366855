package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"kumquat/internal/pipeline"
	"kumquat/internal/unix"
)

// Corpora are generated here rather than by internal/bench's
// RegisterInputs, whose generators derive their seed from (kind, lines)
// alone: the workload seed must reach every input.

// commonWords are the frequent words of generated prose. "light" is
// frequent enough that text-stream's grep keeps a real share of lines.
var commonWords = []string{
	"the", "light", "of", "sea", "and", "wind", "stone", "dark", "river",
	"night", "ship", "king", "gold", "dream", "land", "said", "he", "And",
	"word", "time", "green", "song", "Light", "house", "morning", "letter",
}

var syllables = []string{
	"ka", "lo", "mi", "ten", "ra", "vos", "el", "dun", "sha", "qui",
	"bor", "an", "ith", "ur", "gle", "pen", "sto", "wy", "mar", "ex",
}

// proseVocab is the common words followed by 2000 rarer invented ones;
// generated text draws from it Zipf-distributed, so sort and uniq -c see
// a realistic mix of heavy and rare keys.
var proseVocab = func() []string {
	v := append([]string(nil), commonWords...)
	rng := rand.New(rand.NewSource(0x70e7))
	for len(v) < len(commonWords)+2000 {
		var b []byte
		for n := 2 + rng.Intn(3); n > 0; n-- {
			b = append(b, syllables[rng.Intn(len(syllables))]...)
		}
		if rng.Intn(7) == 0 {
			b[0] -= 'a' - 'A'
		}
		v = append(v, string(b))
	}
	return v
}()

// genProse returns about size bytes of book-like prose: lines of 4–11
// words with occasional commas, each ending in a period.
func genProse(rng *rand.Rand, size int) []byte {
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(len(proseVocab)-1))
	b := bytes.NewBuffer(make([]byte, 0, size+128))
	for b.Len() < size {
		n := 4 + rng.Intn(8)
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(proseVocab[zipf.Uint64()])
			if rng.Intn(9) == 0 {
				b.WriteByte(',')
			}
		}
		b.WriteString(".\n")
	}
	return b.Bytes()
}

// genTelemetry returns about size bytes of bus-telemetry CSV shaped like
// the analytics-mts dataset: ISO timestamp, transit line, vehicle,
// reading.
func genTelemetry(rng *rand.Rand, size int) []byte {
	b := bytes.NewBuffer(make([]byte, 0, size+64))
	for b.Len() < size {
		fmt.Fprintf(b, "2020-%02d-%02dT%02d:%02d:%02d,line%d,v%03d,r%d\n",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			1+rng.Intn(20), 1+rng.Intn(400), rng.Intn(100))
	}
	return b.Bytes()
}

// hashSink is the benchmark's output sink: it digests the stream instead
// of keeping it and times the calls into it (the emit layer).
type hashSink struct {
	h    hash.Hash
	emit time.Duration
}

func newHashSink() *hashSink { return &hashSink{h: sha256.New()} }

func (s *hashSink) Write(p []byte) (int, error) {
	start := time.Now()
	s.h.Write(p)
	s.emit += time.Since(start)
	return len(p), nil
}

// digest is the hash of everything written.
type digest [sha256.Size]byte

func (s *hashSink) sum() digest {
	var d digest
	s.h.Sum(d[:0])
	return d
}

func digestOf(s string) digest { return sha256.Sum256([]byte(s)) }

// checker compares each operation's output digest with its oracle and
// applies the configured deliberate corruption.
type checker struct {
	corrupt int
	next    int
}

func newChecker(cfg config) *checker { return &checker{corrupt: cfg.CorruptOp} }

// check reports whether the output written to s matches want. The
// operation numbered corrupt gets one extra byte first.
func (c *checker) check(s *hashSink, want digest) bool {
	if c.next == c.corrupt {
		s.Write([]byte{'!'}) //nolint:errcheck // hashSink never fails
	}
	c.next++
	return s.sum() == want
}

// serialRun executes a parsed script the u_1 way, as the oracle every
// timed operation is checked against: each stage of each pipeline runs to
// completion in order through the command's Run, `> FILE` targets are
// registered for later pipelines, and the output of the other pipelines
// is concatenated; a pipeline without an input file reads an empty
// stream. onStage, when non-nil, sees each stage's input and run time.
func serialRun(env *unix.Env, script *pipeline.Script,
	onStage func(pi, si int, cmd unix.Command, in string, d time.Duration)) (string, error) {
	var out bytes.Buffer
	for pi, p := range script.Pipelines {
		var data string
		if p.InputFile != "" {
			s, err := env.FS.Read(p.InputFile)
			if err != nil {
				return "", err
			}
			data = s
		}
		for si, spec := range p.Stages {
			cmd, err := unix.Parse(spec, env)
			if err != nil {
				return "", err
			}
			start := time.Now()
			next, err := cmd.Run(data)
			if err != nil {
				return "", fmt.Errorf("stage %q: %w", spec, err)
			}
			if onStage != nil {
				onStage(pi, si, cmd, data, time.Since(start))
			}
			data = next
		}
		if p.OutputFile != "" {
			env.FS.Register(p.OutputFile, data)
		} else {
			out.WriteString(data)
		}
	}
	return out.String(), nil
}
