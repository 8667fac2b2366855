package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kumquat"
	"kumquat/internal/bench"
	"kumquat/internal/cluster"
	"kumquat/internal/obs"
	"kumquat/internal/pipeline"
	"kumquat/internal/server"
	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
	"kumquat/internal/unix"
)

// serveScripts is the fixed mix of serve-cluster: single-pipeline catalog
// scripts whose `cat FILE` source the request body binds to.
var serveScripts = []struct{ suite, name string }{
	{"analytics-mts", "1.sh"},
	{"analytics-mts", "3.sh"},
	{"oneliners", "wf.sh"},
	{"oneliners", "sort-sort.sh"},
	{"oneliners", "nfa-regex.sh"},
	{"unix50", "21.sh"},
}

const (
	// serveBodies is the number of seeded bodies per script.
	serveBodies = 2
	// serveBodyBytes is the size of each body at scale 1.
	serveBodyBytes = 48 << 10
	// serveWorkers is the number of loopback worker daemons.
	serveWorkers = 2
	// serveGCPercent is the GOGC of the serve-cluster process. Run
	// in-process, the client and the three daemons share one heap whose
	// live size (about 2 MB) sits below the runtime's 4 MB minimum
	// target, so at GOGC=100 the process collects ~150 times a second and
	// its stop-the-world pauses amplify host noise into run-to-run swings
	// of 10–30%. GOGC=400 gives the shared heap a 16 MB minimum target:
	// the four minimum heaps the client and daemons would have as separate
	// processes.
	serveGCPercent = 400
)

// routes alternate within each template's pair of requests.
var routes = []string{"on", "off"}

// template is one request of the mix with its serial-oracle digest.
type template struct {
	script string
	body   []byte
	oracle digest
}

// serve is the serve-cluster workload: a loopback coordinator kumquatd
// with two workers, run in-process, driven by one closed-loop client.
type serve struct {
	cfg       config
	check     *checker
	templates []template
	order     *rand.Rand

	hc      *http.Client
	hs      []*http.Server
	serving sync.WaitGroup
	// client is the one closed-loop client. One request in flight fans
	// out to one shard per worker, so the work in flight matches the two
	// CPUs instead of doubling it: on a 2-vCPU VM, a thread busy half the
	// time beside the benchmark cut req_per_s by 26% with two clients and
	// by 12% with one.
	client *serveClient
	// shardHist is the coordinator's shard-latency histogram after setup.
	shardHist map[float64]float64

	obs serveObs
	// prevGC is the GOGC setup replaced, restored by close.
	prevGC *int
}

// serveClient is the closed-loop client with its retry counters, so each
// retry is charged to the request that caused it.
type serveClient struct {
	c                 *client.Client
	retries, rejected int
}

// serveObs accumulates the untraced passes' per-request observations.
type serveObs struct {
	lat                            map[string][]float64 // per route, ms
	wallMS, overheadMS             []float64
	clusterReqs                    int
	shards, remote, local, retries int64
	speculations                   int64
	rejected, clientRetries        int
	hits, lookups                  int64
}

func newServe(cfg config) *serve {
	return &serve{cfg: cfg, check: newChecker(cfg)}
}

// setup generates the seeded request mix and its oracle, boots the
// coordinator and workers on loopback listeners, and warms every combiner
// cache by sending each template once on each route.
func (w *serve) setup(ctx context.Context) error {
	prev := debug.SetGCPercent(serveGCPercent)
	w.prevGC = &prev
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	w.order = rand.New(rand.NewSource(w.cfg.Seed + 1))
	byName := map[string]bench.ScriptSpec{}
	for _, s := range bench.Catalog() {
		byName[s.Suite+"/"+s.Name] = s
	}
	scripts := serveScripts
	if n := w.cfg.Scripts; n > 0 && n < len(scripts) {
		scripts = scripts[:n]
	}
	w.templates = nil
	for _, ref := range scripts {
		spec, ok := byName[ref.suite+"/"+ref.name]
		if !ok {
			return fmt.Errorf("catalog has no %s/%s", ref.suite, ref.name)
		}
		script, err := pipeline.ParseScript(spec.Source, nil)
		if err != nil {
			return err
		}
		gen := genProse
		if spec.Input == "mts" {
			gen = genTelemetry
		}
		for b := 0; b < serveBodies; b++ {
			body := gen(rng, w.cfg.scaled(serveBodyBytes, 1024))
			env := unix.DefaultEnv()
			env.FS.RegisterBytes(script.Pipelines[0].InputFile, body)
			out, err := serialRun(env, script, nil)
			if err != nil {
				return fmt.Errorf("%s/%s serial oracle: %w", ref.suite, ref.name, err)
			}
			w.templates = append(w.templates, template{script: spec.Source, body: body, oracle: digestOf(out)})
		}
	}
	if err := w.boot(); err != nil {
		return err
	}
	for _, t := range w.templates {
		for _, route := range routes {
			sink := newHashSink()
			if _, err := w.client.c.Execute(ctx, t.script, client.ExecuteOptions{K: w.cfg.K, Cluster: route},
				bytes.NewReader(t.body), sink); err != nil {
				return fmt.Errorf("warm-up cluster=%s: %w", route, err)
			}
			if sink.sum() != t.oracle {
				return fmt.Errorf("warm-up cluster=%s output differs from the serial oracle", route)
			}
		}
	}
	hist, err := w.shardHistogram(ctx)
	if err != nil {
		return err
	}
	w.shardHist = hist
	w.obs = serveObs{lat: map[string][]float64{}}
	w.client.retries, w.client.rejected = 0, 0
	return nil
}

// boot starts the worker daemons and the coordinator and builds the
// client.
func (w *serve) boot() error {
	opts := kumquat.Options{Seed: w.cfg.Seed}
	var workers []string
	for i := 0; i < serveWorkers; i++ {
		url, err := w.listen(server.New(server.Config{SynthOptions: opts, TraceProc: "worker" + strconv.Itoa(i)}))
		if err != nil {
			return err
		}
		workers = append(workers, url)
	}
	coord := server.New(server.Config{
		SynthOptions: opts,
		TraceProc:    "coordinator",
		Cluster:      cluster.Config{Workers: workers, Shards: serveWorkers},
	})
	url, err := w.listen(coord)
	if err != nil {
		return err
	}
	w.hc = &http.Client{Transport: &http.Transport{}}
	sc := &serveClient{}
	sc.c = client.New(url,
		client.WithHTTPClient(w.hc),
		client.WithRetry(2, 5*time.Millisecond, 50*time.Millisecond),
		client.WithRetryNotify(func(err error, _ int, _ time.Duration) {
			sc.retries++
			if errors.Is(err, client.ErrBusy) {
				sc.rejected++
			}
		}))
	w.client = sc
	return nil
}

// listen serves srv on a loopback port and returns its base URL.
func (w *serve) listen(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	w.hs = append(w.hs, hs)
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		hs.Serve(ln) //nolint:errcheck // ends at Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every daemon down and waits for their serve loops.
func (w *serve) close() {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	for _, hs := range w.hs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
		cancel()
	}
	w.serving.Wait()
	w.hs, w.hc, w.client = nil, nil, nil
	if w.prevGC != nil {
		debug.SetGCPercent(*w.prevGC)
		w.prevGC = nil
	}
}

// reply is one completed request.
type reply struct {
	lat  time.Duration
	rep  *api.ExecuteReport
	sum  digest
	ok   bool
	busy bool
}

// pass sends every template once on each route — cluster=on then
// cluster=off — in a seeded order.
func (w *serve) pass(ctx context.Context, tracer *obs.Tracer) (*passResult, error) {
	tctx, root := tracer.StartTrace(ctx, "pass")
	order := w.order.Perm(len(w.templates))
	p := &passResult{}
	start := time.Now()
	for _, ti := range order {
		t := w.templates[ti]
		var pair [2]reply
		for ri, route := range routes {
			pair[ri] = w.request(ctx, tctx, t, route, root != nil)
		}
		if pair[0].sum != pair[1].sum {
			pair[0].ok, pair[1].ok = false, false
		}
		for ri, rp := range pair {
			p.ops = append(p.ops, op{lat: rp.lat, ok: rp.ok})
			p.inBytes += int64(len(t.body))
			if root == nil {
				w.record(routes[ri], rp)
			}
		}
	}
	p.wall = time.Since(start)
	root.End()
	if root != nil {
		p.root = root.SpanContext().SpanID.String()
		p.trace, _ = tracer.Trace(root.SpanContext().TraceID)
	}
	return p, nil
}

// request sends one execute and checks its output. On a traced pass the
// request asks the coordinator for a trace (?trace=on), fetches it from
// /v1/traces and grafts it under a benchmark span around the call.
func (w *serve) request(ctx, tctx context.Context, t template, route string, traced bool) reply {
	sc := w.client
	opts := client.ExecuteOptions{K: w.cfg.K, Cluster: route}
	var span *obs.Span
	if traced {
		opts.Trace = "on"
		_, span = obs.StartSpan(tctx, "request")
	}
	rejected := sc.rejected
	sink := newHashSink()
	start := time.Now()
	rep, err := sc.c.Execute(ctx, t.script, opts, bytes.NewReader(t.body), sink)
	lat := time.Since(start)
	span.End()
	busy := errors.Is(err, client.ErrBusy) || sc.rejected > rejected
	ok := err == nil && !busy && w.check.check(sink, t.oracle)
	if traced && err == nil && rep.Trace != nil {
		if td, err := sc.c.TraceData(ctx, rep.Trace.TraceID); err == nil {
			graft(span, td.Spans)
		}
	}
	return reply{lat: lat, rep: rep, sum: sink.sum(), ok: ok, busy: busy}
}

// graft re-parents a daemon's trace under span, in span's trace.
func graft(span *obs.Span, recs []obs.SpanRecord) {
	sc := span.SpanContext()
	for i := range recs {
		recs[i].TraceID = sc.TraceID.String()
		if recs[i].ParentID == "" {
			recs[i].ParentID = sc.SpanID.String()
		}
	}
	span.Tracer().Merge(recs)
}

// record adds one untraced reply to the observations.
func (w *serve) record(route string, rp reply) {
	o := &w.obs
	ms := float64(rp.lat) / float64(time.Millisecond)
	o.lat[route] = append(o.lat[route], ms)
	if rp.busy {
		o.rejected++
	}
	if rp.rep == nil {
		return
	}
	o.wallMS = append(o.wallMS, rp.rep.WallMS)
	o.overheadMS = append(o.overheadMS, ms-rp.rep.WallMS)
	o.hits += rp.rep.SynthCache.Hits + rp.rep.SynthCache.DiskHits
	o.lookups += rp.rep.SynthCache.Lookups()
	if c := rp.rep.Cluster; c != nil {
		o.clusterReqs++
		o.shards += c.Shards
		o.remote += c.RemoteRuns
		o.local += c.LocalRuns
		o.retries += c.Retries
		o.speculations += c.Speculations
	}
}

func (w *serve) finish(ctx context.Context, r *runResult) error {
	found := map[string]bool{}
	for _, t := range w.templates {
		resp, err := w.client.c.Parallelize(ctx, t.script, nil)
		if err != nil {
			return err
		}
		for _, st := range resp.Stages {
			if st.Combiner != "" {
				found[st.Spec] = true
			}
		}
	}
	r.set("combiners_found", float64(len(found)))
	if !r.cfg.Trace {
		return nil
	}
	o := w.obs
	o.clientRetries = w.client.retries
	r.sample("server.wall_ms_p50", median(o.wallMS), len(o.wallMS))
	r.sample("server.http_overhead_ms_p50", median(o.overheadMS), len(o.overheadMS))
	r.sample("server.local_p50_ms", median(o.lat["off"]), len(o.lat["off"]))
	r.set("server.rejected", float64(o.rejected))
	r.set("server.client_retries", float64(o.clientRetries))
	r.sample("cluster.route_p50_ms", median(o.lat["on"]), len(o.lat["on"]))
	r.set("cluster.shards_per_req", ratio(float64(o.shards), float64(o.clusterReqs)))
	r.set("cluster.remote_runs", float64(o.remote))
	r.set("cluster.local_runs", float64(o.local))
	r.set("cluster.retries", float64(o.retries))
	r.set("cluster.speculations", float64(o.speculations))
	r.set("synth.cache_hit_frac", ratio(float64(o.hits), float64(o.lookups)))
	hist, err := w.shardHistogram(ctx)
	if err != nil {
		return err
	}
	p50, n := histMedian(w.shardHist, hist)
	r.sample("cluster.shard_ms_p50", p50*1000, n)
	reportAttribution(r, serveLayer, []string{"server", "cluster"}, nil)
	return nil
}

// shardHistogram reads the coordinator's cumulative shard-latency
// buckets (kumquatd_cluster_shard_seconds) from /metrics.
func (w *serve) shardHistogram(ctx context.Context) (map[float64]float64, error) {
	text, err := w.client.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	const prefix = `kumquatd_cluster_shard_seconds_bucket{le="`
	hist := map[float64]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, fmt.Errorf("shard histogram bound %q: %w", le, err)
			}
		}
		n, err := strconv.ParseFloat(count, 64)
		if err != nil {
			return nil, fmt.Errorf("shard histogram count %q: %w", count, err)
		}
		hist[bound] = n
	}
	return hist, nil
}

// histMedian estimates the median (seconds) of the observations added
// between two cumulative histogram snapshots, interpolating within the
// bucket that holds it, and returns it with the observation count.
func histMedian(before, after map[float64]float64) (float64, int) {
	var bounds []float64
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	inf := math.Inf(1)
	total := after[inf] - before[inf]
	if total <= 0 {
		return 0, 0
	}
	half := total / 2
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := after[b] - before[b]
		if cum >= half {
			if b == inf {
				return prevBound, int(total)
			}
			frac := ratio(half-prevCum, cum-prevCum)
			return prevBound + frac*(b-prevBound), int(total)
		}
		prevBound, prevCum = b, cum
	}
	return prevBound, int(total)
}
