package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// newTestServer returns a small daemon and its httptest front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func decodeJob(t *testing.T, raw []byte) JobResponse {
	t.Helper()
	var jr JobResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decode job response: %v\n%s", err, raw)
	}
	return jr
}

// tinySource is a fast custom program for upload tests: a counting loop with
// one perfectly stride-predictable add and one data-dependent load.
const tinySource = `
main:
	ldi r1, 0
	ldi r2, 400
loop:
	ld r3, data(r1)
	add r4, r4, r3
	addi r1, r1, 1
	blt r1, r2, loop
	st r4, out(zero)
	halt
.data
data:	.space 400
out:	.word 0
`

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", EvaluateRequest{Bench: "compress"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, raw)
	}
	jr := decodeJob(t, raw)
	if jr.ID == "" || (jr.Status != StatusQueued && jr.Status != StatusRunning) {
		t.Fatalf("submit response: %+v", jr)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var got JobResponse
		resp := getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if got.Status == StatusDone {
			if got.Result == nil || got.Result.Program != "compress" {
				t.Fatalf("result: %+v", got.Result)
			}
			if got.Result.Instructions == 0 || got.Result.ValueInstructions == 0 {
				t.Fatalf("empty result: %+v", got.Result)
			}
			if got.Result.Fingerprint == "" {
				t.Fatal("result missing fingerprint")
			}
			break
		}
		if got.Status == StatusFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown job → 404.
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestEvaluateCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := EvaluateRequest{Bench: "compress", Classifier: "profile", Threshold: 80}

	t0 := time.Now()
	resp, raw := postJSON(t, ts.URL+"/v1/evaluate", req)
	missDur := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d\n%s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", h)
	}
	first := decodeJob(t, raw)
	if first.Result == nil || first.Result.Annotation == nil {
		t.Fatalf("profile run missing annotation stats: %+v", first.Result)
	}

	t1 := time.Now()
	resp, raw = postJSON(t, ts.URL+"/v1/evaluate", req)
	hitDur := time.Since(t1)
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", h)
	}
	second := decodeJob(t, raw)
	if !second.CacheHit {
		t.Fatal("second response cache_hit = false")
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Fatalf("cached result differs:\nfirst:  %+v\nsecond: %+v", first.Result, second.Result)
	}
	// The acceptance bar: a repeated identical request is measurably
	// faster. The miss records + profiles + replays a benchmark (tens of
	// ms at least); the hit is a map lookup behind one HTTP round trip.
	if hitDur > missDur/2 {
		t.Errorf("cache hit not measurably faster: miss=%s hit=%s", missDur, hitDur)
	}

	// Metrics must reflect the hit.
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	rc := snap.Caches["results"]
	if rc.Hits < 1 || rc.Misses < 1 {
		t.Fatalf("result cache stats: %+v", rc)
	}
	if snap.JobsCompleted < 2 {
		t.Fatalf("jobs_completed = %d, want ≥ 2", snap.JobsCompleted)
	}
	if snap.Stages[stageTotal].Count < 2 || snap.Stages[stageReplay].Count < 1 {
		t.Fatalf("stage histograms empty: %+v", snap.Stages)
	}
}

func TestSubmitProgramAndEvaluate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, raw := postJSON(t, ts.URL+"/v1/programs", SubmitProgramRequest{Name: "vecsum", Source: tinySource})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit program: %d\n%s", resp.StatusCode, raw)
	}
	var info ProgramInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Instructions != 8 {
		t.Fatalf("program info: %+v", info)
	}

	// Resubmission converges on the same id.
	_, raw = postJSON(t, ts.URL+"/v1/programs", SubmitProgramRequest{Name: "vecsum", Source: tinySource})
	var again ProgramInfo
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != info.ID {
		t.Fatalf("same source produced different fingerprints: %s vs %s", info.ID, again.ID)
	}

	// Describe it.
	var desc ProgramInfo
	if resp := getJSON(t, ts.URL+"/v1/programs/"+info.ID, &desc); resp.StatusCode != http.StatusOK || desc.Name != "vecsum" {
		t.Fatalf("get program: %d %+v", resp.StatusCode, desc)
	}

	// Evaluate it, self-profiled at threshold 90.
	resp, raw = postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Program: info.ID, Classifier: "profile", Threshold: 90,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate uploaded: %d\n%s", resp.StatusCode, raw)
	}
	jr := decodeJob(t, raw)
	if jr.Result.Program != "vecsum" || jr.Result.Annotation == nil {
		t.Fatalf("uploaded result: %+v", jr.Result)
	}
	// The index increment is perfectly stride-predictable, so the
	// self-profile must tag at least one instruction.
	if jr.Result.Annotation.TaggedStride == 0 {
		t.Fatalf("self-profile tagged nothing: %+v", jr.Result.Annotation)
	}
	if jr.Result.UsedCorrect == 0 {
		t.Fatalf("no correct predictions: %+v", jr.Result)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []EvaluateRequest{
		{},                                       // neither bench nor program
		{Bench: "nonesuch"},                      // unknown bench
		{Bench: "compress", Predictor: "oracle"}, // bad predictor
		{Bench: "compress", Classifier: "voodoo"}, // bad classifier
		{Bench: "compress", Threshold: 150},       // threshold out of range
		{Program: "deadbeef"},                     // unknown program id (rejected at run time)
	}
	for i, req := range cases[:5] {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %d\n%s", i, resp.StatusCode, raw)
		}
	}
	// Unknown program passes validation but fails in the worker.
	resp, raw := postJSON(t, ts.URL+"/v1/evaluate", cases[5])
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unknown program: %d\n%s", resp.StatusCode, raw)
	}
	jr := decodeJob(t, raw)
	if jr.Status != StatusFailed || !strings.Contains(jr.Error, "unknown program") {
		t.Fatalf("unknown program response: %+v", jr)
	}
	// Malformed JSON → 400.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp2.StatusCode)
	}
}

func TestRequestTimeoutWhileQueued(t *testing.T) {
	// One worker; block it deterministically by pre-claiming the compress
	// trace computation in the single-flight cache, so the worker joins
	// the in-flight entry and waits. A second job then sits queued past
	// its deadline and must fail with "cancelled while queued".
	const timeout = 200 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: timeout})

	p, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	flightDone := make(chan struct{})
	go func() {
		defer close(flightDone)
		_, _, _ = s.traces.Do(fp, func() (*trace.Recorder, error) {
			<-release
			rec := trace.NewRecorder()
			if _, err := workload.Run(p, rec); err != nil {
				return nil, err
			}
			rec.Seal()
			return rec, nil
		})
	}()

	// Job A occupies the worker (joins the blocked flight).
	respA, rawA := postJSON(t, ts.URL+"/v1/jobs", EvaluateRequest{Bench: "compress"})
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d\n%s", respA.StatusCode, rawA)
	}
	// Job B queues behind it.
	respB, rawB := postJSON(t, ts.URL+"/v1/jobs", EvaluateRequest{Bench: "li"})
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d\n%s", respB.StatusCode, rawB)
	}
	idB := decodeJob(t, rawB).ID

	// Let both deadlines lapse while the worker is still blocked, then
	// release the flight.
	time.Sleep(timeout + 100*time.Millisecond)
	close(release)
	<-flightDone

	deadline := time.Now().Add(30 * time.Second)
	for {
		var got JobResponse
		getJSON(t, ts.URL+"/v1/jobs/"+idB, &got)
		if got.Status == StatusFailed {
			if !strings.Contains(got.Error, "cancelled while queued") {
				t.Fatalf("job B error = %q, want cancelled-while-queued", got.Error)
			}
			break
		}
		if got.Status == StatusDone {
			t.Fatal("job B completed despite expired deadline")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B stuck in %s", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.JobsTimedOut == 0 {
		t.Errorf("jobs_timed_out = 0 after queued-past-deadline job")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	// Enqueue several jobs, then shut down immediately: every queued job
	// must still complete (drain, not drop).
	var jobs []*job
	for i := 0; i < 4; i++ {
		j, err := s.newJob(EvaluateRequest{Bench: "compress", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %s not drained before shutdown returned", j.id)
		}
		if j.err != nil {
			t.Errorf("drained job %s failed: %v", j.id, j.err)
		}
	}
	// After shutdown, submission is rejected.
	if _, err := s.newJob(EvaluateRequest{Bench: "compress"}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

func TestShutdownAbortsOnDeadline(t *testing.T) {
	// A worker stuck in a job that only yields to context cancellation:
	// shutdown must cancel it via the pool's base context once the drain
	// deadline passes, and still wait for the worker to return.
	p := newPool(1, 4, func(j *job) {
		<-j.ctx.Done()
		j.err = j.ctx.Err()
		close(j.done)
	})
	ctx0, cancel0 := context.WithCancel(p.baseCtx)
	j := &job{id: "stuck", ctx: ctx0, cancel: cancel0, done: make(chan struct{}), enqueued: time.Now()}
	if err := p.submit(j); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := p.shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil despite blocked worker")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("shutdown abort took %s", time.Since(start))
	}
	select {
	case <-j.done:
		if j.err == nil {
			t.Error("aborted job carries no error")
		}
	default:
		t.Fatal("shutdown returned before the aborted worker finished")
	}
}

func TestConcurrentClientsRace(t *testing.T) {
	// Acceptance criterion: ≥ 8 parallel clients against one daemon under
	// -race, mixing identical requests (single-flight sharing), distinct
	// configurations (concurrent replays of one sealed trace), and
	// program submissions.
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 128, RequestTimeout: 120 * time.Second})

	const clients = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				var req EvaluateRequest
				switch (c + round) % 4 {
				case 0: // identical hot request → shared single flight
					req = EvaluateRequest{Bench: "compress"}
				case 1: // distinct thresholds over one trace
					req = EvaluateRequest{Bench: "compress", Classifier: "profile",
						Threshold: []float64{90, 80, 70, 60, 50}[c%5]}
				case 2: // different predictor/table shape
					e := []int{0, 256, 512}[c%3]
					req = EvaluateRequest{Bench: "li", Predictor: "lastvalue", Entries: &e, Assoc: 4}
				default: // uploaded program, self-profiled
					resp, raw := postJSON(t, ts.URL+"/v1/programs",
						SubmitProgramRequest{Name: "vecsum", Source: tinySource})
					if resp.StatusCode != http.StatusCreated {
						errs <- fmt.Errorf("client %d: submit program: %d %s", c, resp.StatusCode, raw)
						return
					}
					var info ProgramInfo
					if err := json.Unmarshal(raw, &info); err != nil {
						errs <- err
						return
					}
					req = EvaluateRequest{Program: info.ID, Classifier: "profile"}
				}
				resp, raw := postJSON(t, ts.URL+"/v1/evaluate", req)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: %d %s", c, round, resp.StatusCode, raw)
					return
				}
				jr := decodeJob(t, raw)
				if jr.Result == nil || jr.Result.Instructions == 0 {
					errs <- fmt.Errorf("client %d round %d: empty result %+v", c, round, jr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Deterministic correctness under concurrency: identical requests must
	// have produced identical results regardless of interleaving.
	resp, raw := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "compress"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final check: %d", resp.StatusCode)
	}
	final := decodeJob(t, raw)
	if !final.CacheHit {
		t.Error("hot request not cached after stress")
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Caches["results"].Hits == 0 || snap.Caches["traces"].Hits == 0 {
		t.Errorf("stress produced no cache hits: %+v", snap.Caches)
	}
	if snap.JobsFailed > 0 {
		t.Errorf("%d jobs failed during stress", snap.JobsFailed)
	}
}

func TestQueueFullRejects(t *testing.T) {
	// Zero workers would deadlock shutdown; use a pool whose single worker
	// is blocked, then overfill the queue.
	p := newPool(1, 2, func(j *job) { <-j.ctx.Done(); close(j.done) })
	mk := func() *job {
		ctx, cancel := context.WithCancel(context.Background())
		return &job{ctx: ctx, cancel: cancel, done: make(chan struct{}), enqueued: time.Now()}
	}
	var all []*job
	var rejected bool
	for i := 0; i < 5; i++ {
		j := mk()
		if err := p.submit(j); err != nil {
			if err != ErrQueueFull {
				t.Fatalf("want ErrQueueFull, got %v", err)
			}
			rejected = true
			j.cancel()
			break
		}
		all = append(all, j)
	}
	if !rejected {
		t.Fatal("queue never filled")
	}
	for _, j := range all {
		j.cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
