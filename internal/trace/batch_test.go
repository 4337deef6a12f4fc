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

// batchCapture records every delivered record through both consumer
// contracts, materializing batches record by record through Batch.Record —
// so comparing its stream against the oracle checks every column of every
// batch, field for field.
type batchCapture struct {
	recs    []Record
	batches int
	scalars int
}

func (c *batchCapture) Consume(r *Record) {
	c.scalars++
	c.recs = append(c.recs, *r)
}

func (c *batchCapture) ConsumeBatch(b *Batch) {
	c.batches++
	if b.N != len(b.Op) || b.N != len(b.Flags) || b.N != len(b.Dest) || 2*b.N != len(b.Reads) ||
		b.N != len(b.Dir) || b.N != len(b.Addr) || b.N != len(b.Value) ||
		b.N != len(b.MemAddr) || b.N != len(b.Phase) || b.N != len(b.Seq) {
		panic("trace: batch column lengths disagree with N")
	}
	var r Record
	for i := 0; i < b.N; i++ {
		b.Record(i, &r)
		c.recs = append(c.recs, r)
	}
}

// fillRandom records one random stream into rc and returns it.
func fillRandom(rng *rand.Rand, n int64, rc *Recorder) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
		rc.Consume(&recs[i])
	}
	return recs
}

// TestBatchMatchesScalarReplay is the core batch differential test: batch
// and scalar consumers must both receive the oracle stream from Replay and
// ReplayDirs, across chunk boundaries and with a partial staged tail (which
// batch consumers receive as a batch over the staging columns).
func TestBatchMatchesScalarReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rc := NewRecorder()
	recs := fillRandom(rng, recorderChunkSize+recorderChunkSize/2, rc)

	var scalar capture
	rc.Replay(&scalar)
	got := &batchCapture{}
	rc.Replay(got)
	if got.batches != 2 || got.scalars != 0 {
		t.Fatalf("batch consumer got %d batches and %d records, want 2 batches (chunk + tail) and 0 records",
			got.batches, got.scalars)
	}
	if !reflect.DeepEqual(recs, scalar.recs) {
		t.Fatal("scalar Replay differs from the oracle stream")
	}
	if !reflect.DeepEqual(recs, got.recs) {
		t.Fatal("batch Replay differs from the oracle stream")
	}

	dirs := testDirs(rng)
	wantD := oracleDirs(recs, dirs)
	var scalarD capture
	rc.ReplayDirs(dirs, &scalarD)
	gotD := &batchCapture{}
	rc.ReplayDirs(dirs, gotD)
	if !reflect.DeepEqual(wantD, scalarD.recs) || !reflect.DeepEqual(wantD, gotD.recs) {
		t.Fatal("ReplayDirs differs from the oracle stream")
	}

	// The multi-consumer batch fan-out must match too.
	gA, gB := &batchCapture{}, &batchCapture{}
	rc.Replay(gA, gB)
	if !reflect.DeepEqual(recs, gA.recs) || !reflect.DeepEqual(recs, gB.recs) {
		t.Fatal("multi-consumer batch Replay differs from the oracle stream")
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
			rc.Consume(&recs[i])
		}
		rc.Seal()
		if budget > 0 && rc.SpilledChunks() == 0 {
			t.Fatalf("budget %d: nothing spilled", budget)
		}

		want, wantD := capture{recs}, capture{oracleDirs(recs, dirs)}
		var scalar capture
		rc.Replay(&scalar)
		if !reflect.DeepEqual(want.recs, scalar.recs) {
			t.Fatalf("budget %d: scalar Replay differs from the oracle", budget)
		}

		got, gotD := &batchCapture{}, &batchCapture{}
		rc.Replay(got)
		rc.ReplayDirs(dirs, gotD)
		if !reflect.DeepEqual(want.recs, got.recs) {
			t.Fatalf("budget %d: batch Replay differs from scalar", budget)
		}
		if !reflect.DeepEqual(wantD.recs, gotD.recs) {
			t.Fatalf("budget %d: batch ReplayDirs differs from scalar", budget)
		}

		m1, m2 := &batchCapture{}, &batchCapture{}
		rc.MultiEval(EvalConfig{Consumer: m1}, EvalConfig{Dirs: dirs, Consumer: m2})
		if !reflect.DeepEqual(want.recs, m1.recs) || !reflect.DeepEqual(wantD.recs, m2.recs) {
			t.Fatalf("budget %d: batch MultiEval differs from scalar", budget)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
	}
}

// TestBatchMultiEvalMixed drives MultiEval with batch and scalar consumers
// in the same configuration set (the vpserve sweep shape: vpsim engines are
// batch kernels, ILP machines scalar): every consumer must still observe
// exactly its own ReplayDirs/Replay stream.
func TestBatchMultiEvalMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rc := NewRecorder()
	recs := fillRandom(rng, 2*recorderChunkSize+777, rc)
	dirs := testDirs(rng)
	want, wantD, wantShort := capture{recs}, capture{oracleDirs(recs, dirs)}, capture{oracleDirs(recs, dirs[:100])}

	b1, b2 := &batchCapture{}, &batchCapture{}
	var s1, s2 capture
	saved := rc.MultiEval(
		EvalConfig{Consumer: b1},
		EvalConfig{Consumer: &s1},
		EvalConfig{Dirs: dirs, Consumer: b2},
		EvalConfig{Dirs: dirs[:100], Consumer: &s2},
	)
	if saved != 3 {
		t.Fatalf("MultiEval saved = %d, want 3", saved)
	}
	if b1.batches == 0 || b2.batches == 0 {
		t.Fatal("batch consumers did not run on the batch path")
	}
	if !reflect.DeepEqual(want.recs, b1.recs) {
		t.Fatal("mixed MultiEval: plain batch config differs")
	}
	if !reflect.DeepEqual(want.recs, s1.recs) {
		t.Fatal("mixed MultiEval: plain scalar config differs")
	}
	if !reflect.DeepEqual(wantD.recs, b2.recs) {
		t.Fatal("mixed MultiEval: patched batch config differs")
	}
	if !reflect.DeepEqual(wantShort.recs, s2.recs) {
		t.Fatal("mixed MultiEval: patched scalar config differs")
	}
}

// TestBatchFileRoundTrip proves the batch path over traces that crossed the
// file formats: streams written as VPTRC01 and VPTRC02 and read back into a
// fresh Recorder replay identically on the batch and scalar paths, and
// match the original stream (v1 and v2 preserve all fields; v2 derives Seq
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
		var r Record
		for {
			if err := tr.Next(&r); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				t.Fatal(err)
			}
			rc.Consume(&r)
		}
		rc.Seal()

		var want capture
		rc.Replay(&want)
		if !reflect.DeepEqual(orig, want.recs) {
			t.Fatalf("%v: scalar replay differs from the original stream", format)
		}
		got := &batchCapture{}
		rc.Replay(got)
		if !reflect.DeepEqual(orig, got.recs) {
			t.Fatalf("%v: batch replay differs from the original stream", format)
		}
	}
}

// TestBatchCounterMatchesScalar pins the Counter batch kernel against its
// per-record Consume over the oracle stream.
func TestBatchCounterMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rc := NewRecorder()
	recs := fillRandom(rng, recorderChunkSize+99, rc)

	var scalar, batch Counter
	for i := range recs {
		scalar.Consume(&recs[i])
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
		rc.Consume(&r)
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
			got := &batchCapture{}
			rc.Replay(got)
			if !reflect.DeepEqual(want.recs, got.recs) {
				errs <- "concurrent batch Replay differs"
			}
		}()
		go func() {
			defer wg.Done()
			got := &batchCapture{}
			rc.ReplayDirs(dirs, got)
			if !reflect.DeepEqual(wantD.recs, got.recs) {
				errs <- "concurrent batch ReplayDirs differs"
			}
		}()
		go func() {
			defer wg.Done()
			a := &batchCapture{}
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
		resident.Consume(&r)
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
		spilled.Consume(&r)
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
