// Command vpserve runs the profiling-as-a-service daemon: a JSON HTTP API
// over the profile → classify → annotate → evaluate pipeline, with a bounded
// job queue, a worker pool, and fingerprint-keyed result/trace caches
// (DESIGN.md §8).
//
// Usage:
//
//	vpserve -addr :8080
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/evaluate -d '{"bench":"compress"}'
//	curl -X POST localhost:8080/v1/evaluate \
//	    -d '{"bench":"gcc","classifier":"profile","threshold":80,"ilp":true}'
//	curl localhost:8080/metrics
//
// With -coordinator the daemon joins a vpcoord cluster: it registers
// itself (advertising -advertise or its listen address), heartbeats, and
// deregisters the moment its drain begins.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503 and the
// node deregisters from its coordinator first, then intake stops and queued
// and in-flight jobs drain (up to -drain) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

// version is stamped by release builds via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "job-queue depth")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request timeout (queue wait included)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		train    = flag.Int("train", 0, "training inputs for profile-classified benchmark runs (0 = paper's n=5)")
		results  = flag.Int("result-cache", 1024, "result-cache entries")
		traces   = flag.Int("trace-cache", 32, "trace-cache entries (each can hold a full benchmark trace)")
		traceMem = flag.Int64("trace-mem-budget", 0, "resident bytes budget per recorded trace before chunks spill to disk (0 = unlimited)")

		stateDir   = flag.String("state-dir", "", "enable the durability layer: persist caches and the job journal under this directory (empty = in-memory only)")
		journal    = flag.String("journal", "", "job-journal path (default <state-dir>/jobs.journal; requires -state-dir)")
		checkpoint = flag.Int("sweep-checkpoint", 0, "thresholds per journaled sweep checkpoint chunk (0 = default 4, negative disables; requires -state-dir)")

		maxSteps  = flag.Int64("max-steps", 0, "guest sandbox: max retired instructions per run (0 = default, -1 = unlimited)")
		maxMem    = flag.Int64("max-mem", 0, "guest sandbox: max data-memory words per run (0 = default, -1 = unlimited)")
		maxEvents = flag.Int64("max-trace-events", 0, "guest sandbox: max trace events per run (0 = default, -1 = unlimited)")
		faultSpec = flag.String("faults", "", "arm a fault-injection plan, e.g. 'server.record:error:n=1' (also via VP_FAULTS; see internal/faults)")

		coordinator = flag.String("coordinator", "", "register with a vpcoord coordinator at this base URL")
		advertise   = flag.String("advertise", "", "base URL this node advertises to the coordinator (default http://<addr>)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Format("vpserve", version))
		return
	}

	if *faultSpec == "" {
		*faultSpec = os.Getenv("VP_FAULTS")
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			log.Fatalf("vpserve: -faults: %v", err)
		}
		faults.Enable(plan)
		log.Printf("vpserve: fault injection ARMED: %s", *faultSpec)
	}

	limits := server.DefaultLimits
	if *maxSteps != 0 {
		limits.MaxSteps = *maxSteps
	}
	if *maxMem != 0 {
		limits.MaxMem = *maxMem
	}
	if *maxEvents != 0 {
		limits.MaxTraceEvents = *maxEvents
	}

	if *journal != "" && *stateDir == "" {
		log.Fatalf("vpserve: -journal requires -state-dir")
	}
	srv, err := server.Open(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		RequestTimeout:  *timeout,
		TrainInputs:     *train,
		ResultCache:     *results,
		TraceCache:      *traces,
		TraceMemBudget:  *traceMem,
		StateDir:        *stateDir,
		JournalPath:     *journal,
		SweepCheckpoint: *checkpoint,
		Limits:          limits,
	})
	if err != nil {
		log.Fatalf("vpserve: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vpserve: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("vpserve: listening on %s (version %s)", ln.Addr(), buildinfo.Resolve(version))

	var agent *cluster.Agent
	if *coordinator != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			CoordinatorURL: *coordinator,
			AdvertiseURL:   adv,
			Version:        buildinfo.Resolve(version),
			Logf:           log.Printf,
			// Restart reconcile handshake: advertise journal-recovered work
			// at registration; abandon what the fleet already finished.
			Incomplete: srv.IncompleteJobKeys,
			OnAbandon:  func(keys []string) { srv.AbandonJobs(keys) },
		})
		if err != nil {
			log.Fatalf("vpserve: %v", err)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("vpserve: %s received, draining (deadline %s)", sig, *drain)
	case err := <-errc:
		log.Fatalf("vpserve: serve: %v", err)
	}

	// Drain ordering: flip readiness first so load balancers and the
	// coordinator stop sending new work, and tell the coordinator directly
	// (deregister) — all while the listener still accepts the requests
	// already in flight. Only then stop the listener and drain the queue:
	// queued and in-flight jobs complete (async pollers already hold their
	// job ids against a future restart; sync waiters are cut off with the
	// listener).
	srv.BeginDrain()
	if agent != nil {
		agent.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vpserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("vpserve: %v", err)
		os.Exit(1)
	}
	fmt.Println("vpserve: drained cleanly")
}
