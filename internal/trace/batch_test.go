package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
)

// fillRandom records one random stream into rc and returns it.
func fillRandom(rng *rand.Rand, n int64, rc *Recorder) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
		push(rc, &recs[i])
	}
	return recs
}

// TestBatchMatchesScalarReplay is the core batch differential test: Replay
// and ReplayDirs must deliver the oracle stream, checked field for field
// through Batch.Record, across chunk boundaries and with a partial staged
// tail (delivered as a batch over the staging columns), to one consumer and
// to several.
func TestBatchMatchesScalarReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rc := NewRecorder()
	recs := fillRandom(rng, recorderChunkSize+recorderChunkSize/2, rc)

	got := &capture{}
	rc.Replay(got)
	if got.batches != 2 {
		t.Fatalf("consumer got %d batches, want 2 (chunk + tail)", got.batches)
	}
	if !reflect.DeepEqual(recs, got.recs) {
		t.Fatal("Replay differs from the oracle stream")
	}

	dirs := testDirs(rng)
	gotD := &capture{}
	rc.ReplayDirs(dirs, gotD)
	if !reflect.DeepEqual(oracleDirs(recs, dirs), gotD.recs) {
		t.Fatal("ReplayDirs differs from the oracle stream")
	}

	// The multi-consumer fan-out must match too.
	gA, gB := &capture{}, &capture{}
	rc.Replay(gA, gB)
	if !reflect.DeepEqual(recs, gA.recs) || !reflect.DeepEqual(recs, gB.recs) {
		t.Fatal("multi-consumer Replay differs from the oracle stream")
	}
}

// TestBatchMatchesScalarSpilled runs the batch differential across memory
// budgets that spill some or all chunks to disk, covering the batch-owned
// spill readback scratch.
func TestBatchMatchesScalarSpilled(t *testing.T) {
	const n = 4*recorderChunkSize + 123
	rng := rand.New(rand.NewSource(12))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	dirs := testDirs(rng)
	for _, budget := range []int64{0, 1, 64 << 10, 1 << 20} {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		for i := range recs {
			push(rc, &recs[i])
		}
		rc.Seal()
		if budget > 0 && rc.SpilledChunks() == 0 {
			t.Fatalf("budget %d: nothing spilled", budget)
		}

		want, wantD := capture{recs: recs}, capture{recs: oracleDirs(recs, dirs)}
		got, gotD := &capture{}, &capture{}
		rc.Replay(got)
		rc.ReplayDirs(dirs, gotD)
		if !reflect.DeepEqual(want.recs, got.recs) {
			t.Fatalf("budget %d: Replay differs from the oracle", budget)
		}
		if !reflect.DeepEqual(wantD.recs, gotD.recs) {
			t.Fatalf("budget %d: ReplayDirs differs from the oracle", budget)
		}

		m1, m2 := &capture{}, &capture{}
		rc.MultiEval(EvalConfig{Consumer: m1}, EvalConfig{Dirs: dirs, Consumer: m2})
		if !reflect.DeepEqual(want.recs, m1.recs) || !reflect.DeepEqual(wantD.recs, m2.recs) {
			t.Fatalf("budget %d: MultiEval differs from the oracle", budget)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
	}
}

// TestBatchMultiEvalMixed drives MultiEval with plain and directive
// configurations, including a directive table shorter than the text, in one
// pass (the vpserve sweep shape): every consumer must still observe exactly
// its own ReplayDirs/Replay stream.
func TestBatchMultiEvalMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rc := NewRecorder()
	recs := fillRandom(rng, 2*recorderChunkSize+777, rc)
	dirs := testDirs(rng)

	var p1, p2, d1, d2 capture
	saved := rc.MultiEval(
		EvalConfig{Consumer: &p1},
		EvalConfig{Dirs: dirs, Consumer: &d1},
		EvalConfig{Consumer: &p2},
		EvalConfig{Dirs: dirs[:100], Consumer: &d2},
	)
	if saved != 3 {
		t.Fatalf("MultiEval saved = %d, want 3", saved)
	}
	if !reflect.DeepEqual(recs, p1.recs) || !reflect.DeepEqual(recs, p2.recs) {
		t.Fatal("mixed MultiEval: a plain config differs")
	}
	if !reflect.DeepEqual(oracleDirs(recs, dirs), d1.recs) {
		t.Fatal("mixed MultiEval: patched config differs")
	}
	if !reflect.DeepEqual(oracleDirs(recs, dirs[:100]), d2.recs) {
		t.Fatal("mixed MultiEval: short-table patched config differs")
	}
}

// TestBatchFileRoundTrip proves the batch path over traces that crossed the
// file formats: streams written as VPTRC01 and VPTRC02 and read back into a
// fresh Recorder batch by batch replay the original stream (v1 and v2 preserve all fields; v2 derives Seq
// from position, which these streams satisfy by construction).
func TestBatchFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	orig := make([]Record, recorderChunkSize+345)
	for i := range orig {
		orig[i] = randomRecord(rng, int64(i))
		// VPTRC01 stores Phase as uint16, so clamp the occasional -1 the
		// random generator produces to keep the stream v1-representable.
		if orig[i].Phase < 0 {
			orig[i].Phase = 0
		}
	}
	for _, format := range []Format{FormatV1, FormatV2} {
		tr, err := NewReader(bytes.NewReader(writeFormat(t, format, orig)))
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRecorder()
		for {
			b, err := tr.NextBatch()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rc.ConsumeBatch(b)
		}
		rc.Seal()
		got := &capture{}
		rc.Replay(got)
		if !reflect.DeepEqual(orig, got.recs) {
			t.Fatalf("%v: replay differs from the original stream", format)
		}
	}
}

// TestBatchCounterMatchesScalar pins the Counter batch kernel against a
// per-record count over the oracle stream.
func TestBatchCounterMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rc := NewRecorder()
	recs := fillRandom(rng, recorderChunkSize+99, rc)

	var scalar, batch Counter
	for _, r := range recs {
		scalar.Records++
		if r.HasDest {
			scalar.ValueProds++
		}
	}
	rc.Replay(&batch)
	if scalar != batch {
		t.Fatalf("Counter batch kernel %+v differs from scalar %+v", batch, scalar)
	}
}

// TestBatchConcurrentReplays drives concurrent batch replays — plain,
// patched and mixed MultiEval — over one spilled, sealed recorder. Each
// pass owns its batches and spill scratch, so the -race CI job must see no
// sharing.
func TestBatchConcurrentReplays(t *testing.T) {
	const n = 3 * recorderChunkSize
	rc := NewRecorder()
	rc.SetMemBudget(1) // spill everything
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		push(rc, &r)
	}
	rc.Seal()
	defer rc.Close()

	var want capture
	rc.Replay(&want)
	dirs := make([]isa.Directive, 500)
	for i := range dirs {
		dirs[i] = isa.DirStride
	}
	var wantD capture
	rc.ReplayDirs(dirs, &wantD)

	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			got := &capture{}
			rc.Replay(got)
			if !reflect.DeepEqual(want.recs, got.recs) {
				errs <- "concurrent batch Replay differs"
			}
		}()
		go func() {
			defer wg.Done()
			got := &capture{}
			rc.ReplayDirs(dirs, got)
			if !reflect.DeepEqual(wantD.recs, got.recs) {
				errs <- "concurrent batch ReplayDirs differs"
			}
		}()
		go func() {
			defer wg.Done()
			a := &capture{}
			var b capture
			rc.MultiEval(EvalConfig{Consumer: a}, EvalConfig{Dirs: dirs, Consumer: &b})
			if !reflect.DeepEqual(want.recs, a.recs) || !reflect.DeepEqual(wantD.recs, b.recs) {
				errs <- "concurrent mixed MultiEval differs"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRecordingPooledBuffers checks sealed recorders return their staging
// and encoder scratch to the pools and that recorded data survives: two
// recorders built back to back (the second reusing the first's pooled
// buffers) must hold independent, correct streams.
func TestRecordingPooledBuffers(t *testing.T) {
	build := func(seed int64) (*Recorder, []Record) {
		rng := rand.New(rand.NewSource(seed))
		rc := NewRecorder()
		recs := fillRandom(rng, recorderChunkSize+50, rc)
		rc.Seal()
		return rc, recs
	}
	rc1, recs1 := build(21)
	rc2, recs2 := build(22)

	var got1, got2 capture
	rc1.Replay(&got1)
	rc2.Replay(&got2)
	if !reflect.DeepEqual(recs1, got1.recs) {
		t.Fatal("first pooled recorder corrupted its stream")
	}
	if !reflect.DeepEqual(recs2, got2.recs) {
		t.Fatal("second pooled recorder corrupted its stream")
	}
}

// TestReplayResidentBytes pins the spill-aware resident accounting: fully
// resident recorders report their encoded bytes, spilled ones add the
// readback buffers in flight instead of reporting zero.
func TestReplayResidentBytes(t *testing.T) {
	resident := NewRecorder()
	for i := int64(0); i < recorderChunkSize; i++ {
		r := synthRecord(i)
		push(resident, &r)
	}
	resident.Seal()
	if got, want := resident.ReplayResidentBytes(), resident.BytesResident(); got != want {
		t.Fatalf("resident ReplayResidentBytes = %d, want %d", got, want)
	}
	if resident.ReplayResidentBytes() == 0 {
		t.Fatal("resident ReplayResidentBytes = 0")
	}

	spilled := NewRecorder()
	spilled.SetMemBudget(1)
	for i := int64(0); i < 2*recorderChunkSize; i++ {
		r := synthRecord(i)
		push(spilled, &r)
	}
	spilled.Seal()
	defer spilled.Close()
	if spilled.BytesResident() != 0 {
		t.Fatalf("spilled BytesResident = %d, want 0", spilled.BytesResident())
	}
	got := spilled.ReplayResidentBytes()
	if got <= 0 {
		t.Fatalf("spilled ReplayResidentBytes = %d, want > 0", got)
	}
	// At most two read buffers of the largest chunk: one decode lane over
	// two chunks, or the single inline buffer.
	if max := spilled.EncodedBytes(); got >= 2*max {
		t.Fatalf("spilled ReplayResidentBytes = %d, want < 2*EncodedBytes (%d)", got, 2*max)
	}
}
