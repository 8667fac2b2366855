package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/obs"
)

// executeCluster serves an execute request through the cluster
// coordinator: each pipeline runs under the pipeline executor with the
// coordinator as its chunk runner, so parallel stages shard across the
// worker daemons (with retry, speculation and local fallback), and the
// output streams back with the usual report trailer — extended with the
// run's ClusterReport. Semantics mirror the in-process unoptimized
// execution: stage boundaries are barriers, `> FILE` redirects register
// into the request environment, and standard input feeds the first
// stdin-reading pipeline.
func (s *Server) executeCluster(w http.ResponseWriter, r *http.Request, env *kumquat.Env, plan *kumquat.Plan, stdin io.Reader, combineWorkers int, sink io.Writer, span *obs.Span, remoteTrace bool) {
	// Drain stdin once up front, while the status line is not committed
	// yet: read failures can still answer 400 instead of hiding in a
	// trailer.
	if stdin != nil {
		b, err := io.ReadAll(stdin)
		if err != nil {
			s.endTrace(w, span, remoteTrace, nil)
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
			return
		}
		stdin = bytes.NewReader(b)
	}

	rep := ExecuteReport{
		Mode:        "cluster",
		Parallelism: s.clu.Shards(),
		SynthCache:  plan.SynthCache(),
	}
	outs := plan.OutputFiles()
	runStats := &cluster.Stats{}
	counted := &countingWriter{w: sink}
	start := time.Now()
	for i, pl := range plan.PipelinePlans() {
		var in io.Reader
		if pl.InputFile == "" {
			// Standard input feeds the first stdin-reading pipeline; later
			// ones see it already drained, as in the local executor.
			in, stdin = stdin, nil
		}
		var target io.Writer = counted
		var redirect *strings.Builder
		if outs[i] != "" {
			redirect = &strings.Builder{}
			target = redirect
		}
		stages, st, err := s.clu.ExecutePlan(r.Context(), pl, env.Unix(), in, target, combineWorkers)
		runStats.AddAll(st)
		if err != nil {
			s.endTrace(w, span, remoteTrace, nil)
			w.Header().Set(ErrorTrailer, err.Error())
			return
		}
		for j, m := range stages {
			rep.Stages = append(rep.Stages, ExecuteStage{
				Spec:          m.Spec,
				Parallel:      m.Chunks > 0,
				Chunks:        m.Chunks,
				WallMS:        ms(m.Wall),
				CombineWallMS: ms(m.CombineWall),
				BytesIn:       m.BytesIn,
				BytesOut:      m.BytesOut,
			})
			// Redirected pipelines count toward neither stream total,
			// matching the in-process report semantics.
			if j == 0 && redirect == nil {
				rep.BytesIn += m.BytesIn
			}
		}
		if redirect != nil {
			env.Register(outs[i], redirect.String())
		}
	}
	rep.BytesOut = counted.n
	rep.WallMS = ms(time.Since(start))
	s.endTrace(w, span, remoteTrace, &rep)
	snap := runStats.Snapshot()
	rep.Cluster = &ClusterReport{
		Workers:         len(s.clu.Workers()),
		Healthy:         s.clu.Healthy(),
		Shards:          snap.Shards,
		RemoteRuns:      snap.RemoteRuns,
		LocalRuns:       snap.LocalRuns,
		Retries:         snap.Retries,
		Speculations:    snap.Speculations,
		SpeculationWins: snap.SpeculationWins,
		Ejections:       snap.Ejections,
		Readmissions:    snap.Readmissions,
	}
	report, merr := json.Marshal(rep)
	if merr != nil {
		w.Header().Set(ErrorTrailer, merr.Error())
		return
	}
	w.Header().Set(ReportTrailer, string(report))
}

// countingWriter tallies the bytes written to the response sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
