package main

import (
	"sort"
	"strings"
	"time"

	"kumquat/internal/obs"
)

// The traced run splits a pass's wall time across layers from its span
// tree: the benchmark's own spans around each layer call, plus the
// program's spans (run/pipeline/plan/synth/stage/chunks/region/combine
// in-process; execute/cluster-stage/shard/rpc execute in the daemons).
// Each instant of the root span is charged to the spans active then that
// have no active child — split evenly when several run at once — so the
// layer times plus the unattributed remainder add up to the wall time.
// A span's layer comes from the workload's classifier; "" charges the
// instant to the remainder.

// classifier names the layer a span's self time belongs to.
type classifier func(rec obs.SpanRecord) string

// inprocLayer classifies spans of an in-process pass.
func inprocLayer(rec obs.SpanRecord) string {
	switch {
	case strings.HasPrefix(rec.Name, "textio."):
		return "textio"
	case rec.Name == "synth":
		return "synth"
	case rec.Name == "combine":
		return "dsl"
	case strings.HasPrefix(rec.Name, "pipeline."):
		return "pipeline"
	}
	switch rec.Name {
	case "plan", "run", "pipeline", "stage", "region", "chunks":
		return "pipeline"
	}
	return ""
}

// serveLayer classifies spans of a serve-cluster pass: everything a
// worker records, and the coordinator's dispatch spans, is the cluster
// layer; the coordinator's request handling is the server layer.
func serveLayer(rec obs.SpanRecord) string {
	switch {
	case strings.HasPrefix(rec.Proc, "worker"):
		return "cluster"
	case rec.Name == "cluster-stage" || rec.Name == "shard":
		return "cluster"
	case rec.Proc == "coordinator":
		return "server"
	}
	return ""
}

// attribution is one traced pass's wall time split across layers.
type attribution struct {
	wall         time.Duration
	layers       map[string]time.Duration
	unattributed time.Duration
}

// attribute splits the root span's interval across layers.
func attribute(td *obs.TraceData, rootID string, layerOf classifier) attribution {
	byID := map[string]obs.SpanRecord{}
	children := map[string][]string{}
	for _, rec := range td.Spans {
		byID[rec.SpanID] = rec
		if rec.ParentID != "" {
			children[rec.ParentID] = append(children[rec.ParentID], rec.SpanID)
		}
	}
	root, ok := byID[rootID]
	a := attribution{layers: map[string]time.Duration{}}
	if !ok {
		return a
	}
	lo, hi := root.StartUS, root.StartUS+root.DurUS
	a.wall = time.Duration(root.DurUS) * time.Microsecond

	// Collect the root's subtree, each span clipped to the root interval.
	type span struct {
		start, end int64
		layer      string
		kids       []int
	}
	var spans []span
	var walk func(id string) int
	walk = func(id string) int {
		rec := byID[id]
		s, e := rec.StartUS, rec.StartUS+rec.DurUS
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		idx := len(spans)
		spans = append(spans, span{start: s, end: e, layer: layerOf(rec)})
		if id == rootID {
			spans[idx].layer = ""
		}
		for _, c := range children[id] {
			k := walk(c)
			spans[idx].kids = append(spans[idx].kids, k)
		}
		return idx
	}
	walk(rootID)

	var bounds []int64
	for _, s := range spans {
		if s.end > s.start {
			bounds = append(bounds, s.start, s.end)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	active := func(s span, t0, t1 int64) bool { return s.start <= t0 && s.end >= t1 && s.end > s.start }
	share := map[string]float64{}
	var leaves []int
	for b := 0; b+1 < len(bounds); b++ {
		t0, t1 := bounds[b], bounds[b+1]
		if t1 == t0 {
			continue
		}
		leaves = leaves[:0]
		for i, s := range spans {
			if !active(s, t0, t1) {
				continue
			}
			leaf := true
			for _, k := range s.kids {
				if active(spans[k], t0, t1) {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, i)
			}
		}
		d := float64(t1-t0) / float64(len(leaves))
		for _, i := range leaves {
			share[spans[i].layer] += d
		}
	}
	for layer, us := range share {
		d := time.Duration(us * float64(time.Microsecond))
		if layer == "" {
			a.unattributed = d
		} else {
			a.layers[layer] = d
		}
	}
	return a
}

// reportAttribution records the median over traced passes of each
// layer's self time (seconds) and the unattributed share of the wall.
// carve, when non-nil, moves time between layers of one pass first (the
// in-process workloads split unix work out of the executor's spans).
func reportAttribution(r *runResult, layerOf classifier, layers []string, carve func(p *passResult, a *attribution)) {
	self := map[string][]float64{}
	var unattr []float64
	for _, p := range r.traced {
		if p.trace == nil {
			continue
		}
		a := attribute(p.trace, p.root, layerOf)
		if carve != nil {
			carve(p, &a)
		}
		for _, l := range layers {
			self[l] = append(self[l], a.layers[l].Seconds())
		}
		unattr = append(unattr, ratio(a.unattributed.Seconds(), a.wall.Seconds()))
	}
	for _, l := range layers {
		r.sample(l+".self_s", median(self[l]), len(self[l]))
	}
	r.sample("pipeline.unattributed_frac", median(unattr), len(unattr))
	if n := len(r.traced); n > 0 {
		if td := r.traced[n-1].trace; td != nil {
			if data, err := td.ChromeTrace(); err == nil {
				r.traceJSON = data
			}
		}
	}
}
