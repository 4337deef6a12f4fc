package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// serveTailP is the op_tail_ms percentile of the serve workload: a 30 s
// run of about 2000 requests leaves 20 beyond p99.
const serveTailP = 99

// The serve mix. vpserve has two callers in this repository, and every
// request the benchmark sends has the shape one of them sends:
//
//   - vprun -server: one configuration, from the flags -seed, -scale,
//     -predictor, -entries, -assoc, -classifier, -threshold and -ilp
//     (defaults: seed 1, scale 1, stride, 512 entries, 2-way, fsm);
//   - vpreport -server, through experiments.RemoteSweep: a profile-classified
//     threshold sweep of the canonical evaluation input, from -thresholds
//     (default 90,80,70,60,50) and -ilp.
//
// No record of real traffic exists, so the shares and value ranges below are
// assumed; README.md says why each was chosen.

// Request kinds of the serve mix.
const (
	kindRepeat = iota // an earlier request again: a result-cache hit
	kindConfig        // a new configuration of a program the server holds: replay only, unless its trace was evicted
	kindSeed          // an input seed whose trace the server does not hold: record, annotate and replay
)

// serveMix is how many requests of each kind every block of 20 consecutive
// requests holds, in a seeded order within the block, so the shares (60%
// repeats, 25% new configurations, 15% seeds) are exact in every run.
var serveMix = [3]int{12, 5, 3}

// serveRecent bounds the pool repeats draw from to the most recent distinct
// requests. vpserve's result cache keeps 1024 entries, so every request in
// the pool is still cached.
const serveRecent = 512

// serveSeedPool is how many input seeds per benchmark the seed requests of
// a run cycle through. Every program the server builds stays in
// workload.Build's process-wide cache, so a fixed pool keeps the server's
// memory independent of how many requests a run serves. The 36 pooled
// programs outnumber the server's 32-entry trace cache, so taken in turn,
// each one's trace has been evicted by the time it comes round again.
const serveSeedPool = 4

// Thresholds are whole percentages in the range the paper's five span.
const (
	minThreshold = 50
	maxThreshold = 90
)

// serveRunUnit is the number of completed requests whose wall-clock span
// run_s reports on this workload.
const serveRunUnit = 200

// serveChecks is how many distinct answered requests are recomputed
// in-process after the run.
const serveChecks = 6

// Streams of new requests, each with its own benchmark order.
const (
	streamSingle = iota // new configurations from vprun, on seed 1
	streamSweep         // new configurations from vpreport: threshold sweeps
	streamSeed          // seed requests
)

type serveReq struct {
	kind int
	key  string // the request body, which identifies it
}

// planner generates the seeded request sequence; the client takes requests
// from it in order.
type planner struct {
	rng     *rand.Rand
	reqs    []serveReq
	block   []int
	recent  []int // indices into reqs of distinct requests, oldest first
	seen    map[string]bool
	benches []string
	order   [3][]int            // per stream, a seeded order of benchmarks, taken in turn
	taken   [3]int              // per stream, requests so far
	configs int                 // new-configuration requests so far; they alternate between the callers
	seeds   map[string][]uint64 // per benchmark, the seed pool
	seedUse map[string]int      // per benchmark, seed requests so far
}

func newPlanner(seed uint64, benches []string) *planner {
	p := &planner{
		rng:     rand.New(rand.NewSource(int64(seed))),
		seen:    map[string]bool{},
		benches: benches,
		seeds:   map[string][]uint64{},
		seedUse: map[string]int{},
	}
	for st := range p.order {
		p.order[st] = p.rng.Perm(len(benches))
	}
	for _, b := range benches {
		for range serveSeedPool {
			p.seeds[b] = append(p.seeds[b], p.rng.Uint64()|1)
		}
	}
	// The warmed requests are the first distinct ones.
	for _, b := range benches {
		for _, r := range warmRequests(b) {
			p.addDistinct(kindRepeat, r)
		}
	}
	return p
}

// vprunRequest is the request vprun -server sends with its default flags.
func vprunRequest(bench string) server.EvaluateRequest {
	entries := 512
	return server.EvaluateRequest{
		Bench: bench, Seed: 1, Scale: 1,
		Predictor: "stride", Entries: &entries, Assoc: 2, Classifier: "fsm",
	}
}

// sweepRequest is the request experiments.RemoteSweep sends for vpreport
// -server.
func sweepRequest(bench string, thresholds []float64, ilp bool) server.EvaluateRequest {
	return server.EvaluateRequest{Bench: bench, Thresholds: thresholds, ILP: ilp}
}

// warmRequests are the requests set-up issues for each benchmark: both
// callers' requests with default flags. They fill the server's
// training-image cache for the benchmark and record the traces of the two
// programs new configurations run on: the canonical evaluation input
// (vpreport) and seed 1 (vprun).
func warmRequests(bench string) []server.EvaluateRequest {
	return []server.EvaluateRequest{
		sweepRequest(bench, experiments.DefaultThresholds, false),
		vprunRequest(bench),
	}
}

func requestKey(r server.EvaluateRequest) string {
	b, _ := json.Marshal(r) // a struct of plain fields always marshals
	return string(b)
}

func (p *planner) addDistinct(kind int, r server.EvaluateRequest) int {
	key := requestKey(r)
	p.seen[key] = true
	p.reqs = append(p.reqs, serveReq{kind: kind, key: key})
	p.recent = append(p.recent, len(p.reqs)-1)
	if len(p.recent) > serveRecent {
		p.recent = p.recent[1:]
	}
	return len(p.reqs) - 1
}

// serveDraws bounds the draws for a request not sent before. The request
// space holds thousands of keys per benchmark, so running out means the
// server answered far more requests than it can in a run.
const serveDraws = 10000

// next returns the index of the next request of the sequence.
func (p *planner) next() (int, serveReq, error) {
	if len(p.block) == 0 {
		for k, n := range serveMix {
			for j := 0; j < n; j++ {
				p.block = append(p.block, k)
			}
		}
		p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
	}
	kind := p.block[0]
	p.block = p.block[1:]
	if kind == kindRepeat {
		src := p.reqs[p.recent[p.rng.Intn(len(p.recent))]]
		p.reqs = append(p.reqs, serveReq{kind: kindRepeat, key: src.key})
		return len(p.reqs) - 1, p.reqs[len(p.reqs)-1], nil
	}
	// The costliest choices, the benchmark, ILP and a sweep's length, are
	// not drawn but taken in turn, each stream's benchmarks in a fixed
	// order, so every run holds the same mix of their combinations: a
	// run's figures then do not depend on how its seed happened to fall.
	// The nine primary benchmarks are a number prime to the sweeps' cycle
	// of eight (ILP off and on at each of four lengths) and to ILP's cycle
	// of two, so every combination comes round equally often.
	stream := streamSeed
	if kind == kindConfig {
		stream = streamSingle
		if p.configs%2 == 1 {
			stream = streamSweep
		}
		p.configs++
	}
	j := p.taken[stream] // index among this stream's requests
	p.taken[stream]++
	bench := p.benches[p.order[stream][j%len(p.benches)]]
	sweep, withILP, nths := stream == streamSweep, j%2 == 1, 2+j/2%4
	var seed uint64 = 1 // vprun's default
	if stream == streamSeed {
		pool := p.seeds[bench]
		seed = pool[p.seedUse[bench]%len(pool)]
		p.seedUse[bench]++
	}
	for range serveDraws {
		var r server.EvaluateRequest
		switch {
		case sweep:
			r = sweepRequest(bench, p.thresholds(nths), withILP)
		case kind == kindSeed:
			r = p.vprunConfig(bench, seed, withILP)
			r.Classifier, r.Threshold = "profile", p.threshold()
		default:
			r = p.vprunConfig(bench, seed, withILP)
		}
		if !p.seen[requestKey(r)] {
			i := p.addDistinct(kind, r)
			return i, p.reqs[i], nil
		}
	}
	return 0, serveReq{}, fmt.Errorf("no unsent request of kind %d for %s in %d draws", kind, bench, serveDraws)
}

// vprunConfig draws the flags of a vprun -server call for the benchmark on
// the given input seed, with -ilp as given: each other flag uniform over its
// choices. The table is
// one of four, uniformly: infinite, or 512 entries 1-, 2- or 4-way (the
// artifact drivers evaluate the infinite and the 512-entry 2-way table; -assoc
// has no effect on an infinite one, so vprun's default 2 stays). An FSM request carries vprun's default
// threshold 0, which the FSM ignores, so no two distinct keys name the same
// computation.
func (p *planner) vprunConfig(bench string, seed uint64, withILP bool) server.EvaluateRequest {
	r := vprunRequest(bench)
	r.Seed = seed
	if p.rng.Intn(2) == 0 {
		r.Predictor = "lastvalue"
	}
	if p.rng.Intn(4) == 0 {
		*r.Entries = 0
	} else {
		r.Assoc = []int{1, 2, 4}[p.rng.Intn(3)]
	}
	if p.rng.Intn(2) == 0 {
		r.Classifier, r.Threshold = "profile", p.threshold()
	}
	r.ILP = withILP
	return r
}

func (p *planner) threshold() float64 {
	return float64(minThreshold + p.rng.Intn(maxThreshold-minThreshold+1))
}

// thresholds draws a vpreport -thresholds list of n distinct thresholds,
// highest first like vpreport's default list. The default list alone would
// give 18 distinct sweeps, all sent in a run's first seconds.
func (p *planner) thresholds(n int) []float64 {
	set := map[float64]bool{}
	for len(set) < n {
		set[p.threshold()] = true
	}
	out := make([]float64, 0, n)
	for th := range set {
		out = append(out, th)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// sample is one request as the client saw it.
type sample struct {
	idx      int
	kind     int
	key      string
	traced   bool
	ms       float64
	done     time.Time
	status   int
	err      error
	bytes    int
	cacheHit bool
	queuedMS float64
	result   json.RawMessage
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// refused reports a request the server turned away or never answered.
func (s *sample) refused() bool { return s.status == 0 || s.status == http.StatusServiceUnavailable }

// instance is one in-process vpserve reached over loopback HTTP.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

// startInstance starts a server with vpserve's default configuration and
// no state directory, and a client that keeps one connection.
func startInstance() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		srv:    server.New(server.Config{}),
		url:    "http://" + ln.Addr().String() + "/v1/evaluate",
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			},
		},
	}
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// stop shuts the HTTP server and the job pool down and waits for both.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in.client.CloseIdleConnections()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := in.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

type evalResponse struct {
	CacheHit bool            `json:"cache_hit"`
	QueuedMS float64         `json:"queued_ms"`
	RunMS    float64         `json:"run_ms"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// post sends one request and fills the sample; tr, when non-nil, records
// the request span and the server's reported queue and run intervals.
func (in *instance) post(body []byte, s *sample, tr *tracer, op int64) {
	t0 := time.Now()
	root := tr.start("serve.request", 0, op)
	var start int64
	if tr != nil {
		start = tr.startOf(root)
	}
	resp, err := in.client.Post(in.url, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	tr.finish(root)
	s.done = time.Now()
	s.ms = float64(s.done.Sub(t0)) / float64(time.Millisecond)
	s.err = err
	s.bytes = len(raw)
	if err != nil {
		return
	}
	var er evalResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		s.err = fmt.Errorf("decode response: %w", err)
		return
	}
	if s.status != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", s.status, er.Error)
		return
	}
	s.cacheHit, s.queuedMS, s.result = er.CacheHit, er.QueuedMS, er.Result
	if tr != nil {
		q := int64(er.QueuedMS * 1e6)
		tr.add("server.queued", root, op, start, start+q)
		tr.add("server.run", root, op, start+q, start+q+int64(er.RunMS*1e6))
	}
}

// warm issues the warm requests of every benchmark, one at a time.
func (in *instance) warm(benches []string) error {
	for _, b := range benches {
		for _, r := range warmRequests(b) {
			var s sample
			in.post([]byte(requestKey(r)), &s, nil, 0)
			if s.err != nil {
				return fmt.Errorf("warm %s: %w", b, s.err)
			}
		}
	}
	return nil
}

// runServe drives an in-process vpserve over loopback HTTP in a closed loop
// of one client, which sends its next request when the previous answer
// arrives, the way vprun and vpreport wait for each reply. One client keeps
// the request order, and with it every cache hit and eviction, the same for
// a seed, and leaves a core for the runtime: with one client per core, runs
// on a shared host spread by up to a third.
func runServe(o *options) (*outcome, error) {
	benches := workload.Names()
	out := &outcome{tailP: serveTailP}
	var in *instance
	stop := func() {
		if in != nil {
			if err := in.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: stop server:", err)
			}
			in = nil
		}
	}
	defer stop()
	var err error
	out.setupS, err = measureSetup(func(int) error {
		if in, err = startInstance(); err != nil {
			return err
		}
		return in.warm(benches)
	}, stop)
	if err != nil {
		return nil, err
	}

	if o.traced {
		out.tr = newTracer()
	}
	plan := newPlanner(o.seed, benches)
	var all []sample
	before := readRuntime()
	start := time.Now()
	for time.Since(start) < o.dur {
		idx, r, err := plan.next()
		if err != nil {
			return nil, err
		}
		s := sample{idx: idx, kind: r.kind, key: r.key, traced: o.traced && idx%2 == 1}
		var tr *tracer
		if s.traced {
			tr = out.tr
		}
		in.post([]byte(r.key), &s, tr, int64(idx))
		all = append(all, s)
	}
	out.measured = time.Since(start)
	after := readRuntime()

	out.attempted = int64(len(all))
	var refused int64
	for i := range all {
		s := &all[i]
		if !s.ok() {
			out.failed++
			if s.refused() {
				refused++
			}
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", s.idx, s.err)
			continue
		}
		if s.traced {
			out.tracedMS = append(out.tracedMS, s.ms)
		} else {
			out.opsMS = append(out.opsMS, s.ms)
		}
	}
	for k := serveRunUnit; k < len(all); k += serveRunUnit {
		out.runS = append(out.runS, all[k].done.Sub(all[k-serveRunUnit].done).Seconds())
	}
	if len(out.runS) == 0 {
		out.runS = append(out.runS, out.measured.Seconds()*serveRunUnit/float64(max(len(all), 1)))
	}

	// Every answer must equal the first answer for its key.
	first := map[string]json.RawMessage{}
	for i := range all {
		s := &all[i]
		if !s.ok() {
			continue
		}
		if f, ok := first[s.key]; !ok {
			first[s.key] = s.result
		} else if !bytes.Equal(f, s.result) {
			out.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: request %d: answer differs from the first answer for %s\n", s.idx, s.key)
		}
	}
	// A seeded sample of the distinct answered requests, recomputed
	// in-process through the library.
	rng := rand.New(rand.NewSource(int64(o.seed) + 1))
	var keys []string
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:min(serveChecks, len(keys))] {
		if err := checkInProcess(k, first[k]); err != nil {
			out.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", k, err)
		}
	}

	if o.traced {
		out.layer = map[string]float64{}
		var hit, replay, record, queued []float64
		var hits, oks, respBytes int64
		for i := range all {
			s := &all[i]
			if !s.ok() {
				continue
			}
			oks++
			if s.cacheHit {
				hits++
			}
			if !s.traced {
				continue
			}
			respBytes += int64(s.bytes)
			queued = append(queued, s.queuedMS)
			switch {
			case s.cacheHit:
				hit = append(hit, s.ms)
			case s.kind == kindConfig:
				replay = append(replay, s.ms)
			case s.kind == kindSeed:
				record = append(record, s.ms)
			}
		}
		p50 := func(xs []float64) float64 {
			if len(xs) == 0 {
				return 0
			}
			return median(xs)
		}
		out.layer["server.hit_p50_ms"] = p50(hit)
		out.layer["server.replay_p50_ms"] = p50(replay)
		out.layer["server.record_p50_ms"] = p50(record)
		out.layer["server.queued_p50_ms"] = p50(queued)
		if n := len(queued); n > 0 {
			out.layer["server.resp_bytes"] = float64(respBytes) / float64(n)
		}
		if oks > 0 {
			out.layer["server.hit_ratio"] = float64(hits) / float64(oks)
		}
		out.layer["server.refused"] = float64(refused)
		runtimeMetrics(out.layer, before, after, int64(len(all)))
	}
	return out, nil
}

// checkInProcess recomputes one request without the server: the trace is
// recorded for the instruction count and storage figures, and the engines
// (and ILP machines) run attached to the VM executing the plain or
// annotated program, the way the paper's tool flow runs them.
func checkInProcess(key string, got json.RawMessage) error {
	var r server.EvaluateRequest
	if err := json.Unmarshal([]byte(key), &r); err != nil {
		return err
	}
	r.Normalize()
	want, err := evaluateInProcess(r)
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var a, b report.Run
	if err := json.Unmarshal(got, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(wantJSON, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("server answered %s, in-process %s", got, wantJSON)
	}
	return nil
}

func evaluateInProcess(r server.EvaluateRequest) (*report.Run, error) {
	in := workload.EvaluationInput()
	if r.Seed != 0 {
		in = workload.Input{Seed: r.Seed, Scale: r.Scale}
	}
	p, err := workload.Build(r.Bench, in)
	if err != nil {
		return nil, err
	}
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	defer rec.Close()
	_, err = workload.Run(p, rec)
	rec.Seal()
	if err != nil {
		return nil, err
	}

	// One run per threshold: a sweep's list, or the request's own.
	ths := r.Thresholds
	if len(ths) == 0 {
		ths = []float64{r.Threshold}
	}
	var annotated []*program.Program
	var annoStats []annotate.Stats
	if r.Classifier == "profile" {
		var ims []*profiler.Image
		for _, tin := range workload.TrainingInputs(5) {
			tp, err := workload.Build(r.Bench, tin)
			if err != nil {
				return nil, err
			}
			col := profiler.NewCollector()
			if _, err := workload.Run(tp, col); err != nil {
				return nil, err
			}
			ims = append(ims, col.Image(r.Bench, tin.String()))
		}
		merged, err := profiler.Merge(ims...)
		if err != nil {
			return nil, err
		}
		for _, th := range ths {
			opts := annotate.DefaultOptions
			opts.AccuracyThreshold = th
			ap, st, err := annotate.Apply(p, merged, opts)
			if err != nil {
				return nil, err
			}
			annotated = append(annotated, ap)
			annoStats = append(annoStats, st)
		}
	}
	var baseRes *ilp.Result
	if r.ILP {
		base, err := ilp.New(ilp.DefaultConfig, nil)
		if err != nil {
			return nil, err
		}
		if _, err := workload.Run(p, base); err != nil {
			return nil, err
		}
		res := base.Result()
		baseRes = &res
	}

	runs := make([]*report.Run, len(ths))
	for i, th := range ths {
		out := &report.Run{
			Program:      p.Name,
			Fingerprint:  fp,
			Input:        in.String(),
			Instructions: rec.Len(),
			Classifier:   r.Classifier,
			Predictor:    report.Predictor{Kind: r.Predictor, Entries: *r.Entries, Assoc: r.Assoc},
		}
		engine, err := newRequestEngine(r)
		if err != nil {
			return nil, err
		}
		runP := p
		if annotated != nil {
			runP = annotated[i]
			out.Threshold = th
			out.SetAnnotation(annoStats[i])
		}
		if r.ILP {
			m, err := ilp.New(ilp.DefaultConfig, engine)
			if err != nil {
				return nil, err
			}
			if _, err := workload.Run(runP, m); err != nil {
				return nil, err
			}
			out.SetILP(m.Result(), baseRes)
		} else if _, err := workload.Run(runP, engine); err != nil {
			return nil, err
		}
		out.SetStats(engine.Stats())
		out.SetTraceStorage(rec)
		runs[i] = out
	}
	res := *runs[0]
	if len(r.Thresholds) > 0 {
		res.Sweep = runs
		res.ReplayPassesSaved = int64(len(ths) - 1)
		if r.ILP {
			res.ReplayPassesSaved++ // the baseline machine shares the pass
		}
	}
	return &res, nil
}

// newRequestEngine is the engine a request names, on the table it names.
func newRequestEngine(r server.EvaluateRequest) (*vpsim.Engine, error) {
	kind := predictor.Stride
	if r.Predictor == "lastvalue" {
		kind = predictor.LastValue
	}
	var store predictor.Store = predictor.NewInfinite(kind)
	if *r.Entries > 0 {
		var err error
		if store, err = predictor.NewTable(kind, predictor.TableConfig{Entries: *r.Entries, Assoc: r.Assoc}); err != nil {
			return nil, err
		}
	}
	if r.Classifier == "profile" {
		return vpsim.NewProfileEngine(store), nil
	}
	pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
	if err != nil {
		return nil, err
	}
	return vpsim.NewFSMEngine(store, pol), nil
}
