package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestEvaluateReportsTraceStorage checks every replayed run carries the
// trace_storage section and that the /metrics trace-storage gauges move.
func TestEvaluateReportsTraceStorage(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "compress"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d\n%s", resp.StatusCode, raw)
	}
	run := decodeJob(t, raw).Result
	if run == nil || run.TraceStorage == nil {
		t.Fatal("run missing trace_storage section")
	}
	st := run.TraceStorage
	if st.Records != run.Instructions {
		t.Errorf("trace_storage.records = %d, want %d", st.Records, run.Instructions)
	}
	if st.EncodedBytes <= 0 || st.ResidentBytes != st.EncodedBytes || st.SpilledChunks != 0 {
		t.Errorf("unbudgeted storage unexpected: %+v", st)
	}
	if st.BytesPerRecord <= 0 || st.BytesPerRecord > 56.0/3 {
		t.Errorf("bytes_per_record = %.2f, want (0, %.2f] (≥3x under the 56-byte record)",
			st.BytesPerRecord, 56.0/3)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.TraceBytesResident != st.EncodedBytes {
		t.Errorf("trace_bytes_resident = %d, want %d", snap.TraceBytesResident, st.EncodedBytes)
	}
	if snap.TraceChunksSpilled != 0 {
		t.Errorf("trace_chunks_spilled = %d, want 0 without a budget", snap.TraceChunksSpilled)
	}
	if snap.TraceCodecBytesPerRecord <= 0 || snap.TraceCodecBytesPerRecord > 56.0/3 {
		t.Errorf("trace_codec_bytes_per_record = %.2f out of range", snap.TraceCodecBytesPerRecord)
	}
}

// TestRecordPathMetrics checks the record-side observability gauges: after an
// evaluate job the snapshot must report sealed column chunks, a positive
// recording throughput, and an encode-stage histogram with samples.
func TestRecordPathMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "compress"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d\n%s", resp.StatusCode, raw)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.TraceChunksEncoded <= 0 {
		t.Errorf("trace_chunks_encoded = %d, want > 0 after recording", snap.TraceChunksEncoded)
	}
	if snap.RecordMinstrPerS <= 0 {
		t.Errorf("record_minstr_per_s = %g, want > 0 after recording", snap.RecordMinstrPerS)
	}
	enc, ok := snap.Stages["encode"]
	if !ok {
		t.Fatal("stages missing the encode histogram")
	}
	if enc.Count <= 0 {
		t.Errorf("encode stage count = %d, want > 0", enc.Count)
	}
	if rec := snap.Stages["record"]; rec.Count <= 0 {
		t.Errorf("record stage count = %d, want > 0", rec.Count)
	}
}

// TestSpilledServerMatchesResident runs the same sweep against a resident
// server and a server with a 1-byte trace memory budget; the results must be
// byte-identical (modulo the storage section itself) and the budgeted server
// must actually have spilled.
func TestSpilledServerMatchesResident(t *testing.T) {
	req := EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 50}, ILP: true}

	type leg struct {
		run  json.RawMessage
		snap MetricsSnapshot
	}
	runLeg := func(budget int64) leg {
		_, ts := newTestServer(t, Config{Workers: 2, TraceMemBudget: budget})
		resp, raw := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget=%d evaluate: %d\n%s", budget, resp.StatusCode, raw)
		}
		run := decodeJob(t, raw).Result
		if run == nil {
			t.Fatalf("budget=%d: no result", budget)
		}
		// Erase the storage sections — they legitimately differ between the
		// legs (resident vs spilled); everything else must not.
		run.TraceStorage = nil
		for _, sub := range run.Sweep {
			sub.TraceStorage = nil
		}
		enc, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		var snap MetricsSnapshot
		getJSON(t, ts.URL+"/metrics", &snap)
		return leg{run: enc, snap: snap}
	}

	resident := runLeg(0)
	spilled := runLeg(1)
	if string(resident.run) != string(spilled.run) {
		t.Errorf("spilled result differs from resident:\nresident: %s\nspilled:  %s", resident.run, spilled.run)
	}
	if spilled.snap.TraceChunksSpilled == 0 {
		t.Error("budgeted server reported no spilled chunks — spill path not exercised")
	}
	if spilled.snap.TraceBytesResident != 0 {
		t.Errorf("budgeted trace_bytes_resident = %d, want 0 under a 1-byte budget", spilled.snap.TraceBytesResident)
	}
	if resident.snap.TraceChunksSpilled != 0 {
		t.Errorf("resident server spilled %d chunks", resident.snap.TraceChunksSpilled)
	}
}

// TestTraceCacheEvictionReleasesGauge fills a 1-entry trace cache with two
// programs; evicting the first must subtract its resident bytes, leaving the
// gauge equal to the survivor's footprint.
func TestTraceCacheEvictionReleasesGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TraceCache: 1})
	for _, bench := range []string{"compress", "li"} {
		resp, raw := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: bench})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %s: %d\n%s", bench, resp.StatusCode, raw)
		}
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Caches["traces"].Evictions == 0 {
		t.Fatal("trace cache did not evict with capacity 1")
	}
	// The gauge must equal the one surviving trace, not the sum of both.
	_, ts2 := newTestServer(t, Config{Workers: 1})
	resp, raw := postJSON(t, ts2.URL+"/v1/evaluate", EvaluateRequest{Bench: "li"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate li: %d\n%s", resp.StatusCode, raw)
	}
	sortRun := decodeJob(t, raw).Result
	if snap.TraceBytesResident != sortRun.TraceStorage.EncodedBytes {
		t.Errorf("after eviction trace_bytes_resident = %d, want the surviving trace's %d",
			snap.TraceBytesResident, sortRun.TraceStorage.EncodedBytes)
	}
}
