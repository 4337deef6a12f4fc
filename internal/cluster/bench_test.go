package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/server"
)

// Cluster-throughput benchmarks: sweep requests/sec through the coordinator
// at one vs two worker nodes (scripts/bench.sh feeds these into the
// "cluster" section of BENCH_report.json). Each iteration uses a fresh odd
// seed so every sweep records and replays a real trace — the 2-node number
// shows whether scatter-gather actually buys wall-clock over one node. Seeds
// that differ only in bit 0 build the same program (see workload.Input), so
// stepping by one would make every other sweep a trace-cache hit.

func benchCluster(b *testing.B, nodes int) string {
	b.Helper()
	cfg := Config{Logf: func(string, ...any) {}}
	_, cts, _ := newTestCluster(b, nodes, cfg)
	return cts.URL
}

func benchSweep(b *testing.B, url string, seed uint64) {
	b.Helper()
	req := server.EvaluateRequest{
		Bench: "compress", Seed: seed, Scale: 1,
		Thresholds: []float64{95, 85, 75, 65},
		ILP:        true,
	}
	raw, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var jr server.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || jr.Result == nil {
		b.Fatalf("sweep: %d %+v", resp.StatusCode, jr)
	}
}

func BenchmarkClusterSweep(b *testing.B) {
	// Leg names avoid a trailing digit: bench.sh strips the GOMAXPROCS
	// suffix with -[0-9]+$, which would eat a "nodes-2" as well.
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("%d-node", nodes), func(b *testing.B) {
			url := benchCluster(b, nodes)
			benchSweep(b, url, 1_000_000) // prime workload caches off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSweep(b, url, uint64(2*i+1))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
