package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/isa"
)

// This file implements the record-once/replay-many trace cache. A Recorder
// captures a dynamic instruction stream into columnar compressed chunks;
// Replay feeds it back to any number of consumers, bit-identically to the
// live run, without re-interpreting the program. The experiment drivers use
// it to run the evaluation input once per benchmark and replay the recorded
// stream for every threshold and prediction-engine configuration.
//
// There is one record path and one replay walk. Records are staged as
// RecordColumns (written directly by the VM's fused loop, or copied from
// ConsumeBatch) and each full stage is encoded inline into the packed
// columnar form of codec.go (~10 bytes/record against the 56-byte Record
// struct). Every replay — Replay, ReplayDirs and MultiEval alike — walks the
// chunks once, decoding each into a column Batch (inline, or ahead of the
// consumer on decode lanes when spare CPUs exist) that every consumer reads
// as columns. When a resident-bytes budget is set, encoded chunks past the
// budget spill to an anonymous temp file (spill.go) and are read back with
// one positional read per chunk into batch-owned scratch.

// recorderChunkSize is the number of records per storage chunk: 16384
// records stage into ~0.6 MiB of columns and encode into roughly
// 100–300 KiB, a comfortable unit for both cache-resident decoding and
// sequential spill I/O.
const recorderChunkSize = 1 << 14

// recordMemBytes is the in-memory size of one decoded Record, the AoS
// footprint the columnar encoding is measured against.
const recordMemBytes = int64(unsafe.Sizeof(Record{}))

// rchunk is one encoded chunk: resident (data set) or spilled (data nil,
// off/size locating the encoding in the spill file).
type rchunk struct {
	data     []byte
	off      int64
	size     int32
	n        int32
	firstSeq int64 // stream position of the chunk's first record
}

// Recorder is a Consumer (and ColumnAppender) that captures the stream for
// later replay. Recording is single-threaded (one producer), but a finished
// Recorder is immutable and Replay/ReplayDirs/MultiEval may be called
// concurrently from multiple goroutines. Owners that share a Recorder across goroutines (the
// experiments context, the vpserve trace cache) must Seal it first: sealing
// marks recording complete, turns any further ConsumeBatch into a panic,
// and documents the immutability the concurrent replays rely on. Replay
// hands batches out under a strict read-only, duration-of-the-call contract
// (the same contract as a live run); the -race stress tests in
// internal/experiments drive every replay path from many goroutines to
// catch any consumer that violates it.
type Recorder struct {
	cols     *RecordColumns // the chunk being filled; nil until the first record and after Seal
	enc      *chunkEncoder
	chunks   []rchunk
	nFlushed int64 // records in encoded chunks

	memBudget     int64 // resident encoded-bytes budget; <=0 = fully resident
	residentBytes int64 // encoded bytes currently held in memory
	encodedBytes  int64 // encoded bytes total (resident + spilled)
	maxChunkBytes int64 // largest encoded chunk, the unit of spill readback
	spilledChunks int64
	spill         *spillFile
	encodeTime    time.Duration // cumulative chunk-encode wall time

	sealed bool
	passes atomic.Int64 // full replay passes over the buffer, for amortization accounting
}

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetMemBudget bounds the encoded trace bytes the Recorder keeps resident in
// memory; chunks encoded past the budget spill to a temporary file (deleted
// on creation, so it can never outlive the process) and stream back during
// replay. A budget ≤ 0 keeps everything resident. The budget governs chunks
// encoded after the call, so set it before recording; the staging columns
// for the chunk being filled are not counted against it.
func (rc *Recorder) SetMemBudget(bytes int64) { rc.memBudget = bytes }

// ChunksEncoded reports how many chunks have been encoded so far (resident
// or spilled), the unit of the record-side observability metrics.
func (rc *Recorder) ChunksEncoded() int64 { return int64(len(rc.chunks)) }

// EncodeTime reports the cumulative wall time spent encoding chunks.
func (rc *Recorder) EncodeTime() time.Duration { return rc.encodeTime }

// Passes reports how many full replay passes have walked the recorded
// buffer (Replay, ReplayDirs and MultiEval each count one, however many
// consumers they fed). The single-pass sweep tests and the vpserve
// amortization metrics read it.
func (rc *Recorder) Passes() int64 { return rc.passes.Load() }

// stagedLen returns the number of records in the staging tail.
func (rc *Recorder) stagedLen() int {
	if rc.cols == nil {
		return 0
	}
	return rc.cols.N
}

// Len returns the number of recorded records.
func (rc *Recorder) Len() int64 { return rc.nFlushed + int64(rc.stagedLen()) }

// Bytes returns the approximate resident in-memory size of the recorded
// trace: the encoded chunks still held in memory plus the staged records
// (at the decoded Record size). Spilled chunks do not count.
func (rc *Recorder) Bytes() int64 {
	return rc.residentBytes + int64(rc.stagedLen())*recordMemBytes
}

// EncodedBytes returns the total encoded size of all flushed chunks,
// resident and spilled. Records still in the staging buffer (at most one
// partial chunk; none once sealed) are not yet encoded.
func (rc *Recorder) EncodedBytes() int64 { return rc.encodedBytes }

// BytesResident returns the encoded bytes currently held in memory.
func (rc *Recorder) BytesResident() int64 { return rc.residentBytes }

// ReplayResidentBytes returns the peak in-memory encoded working set of one
// replay pass: the resident chunks plus, when any chunk has spilled, one
// chunk-sized read buffer per batch in flight (one on the inline walk, two
// per decode lane). This is the honest per-pass memory figure for a spilled
// trace, where BytesResident alone would report a misleading zero.
func (rc *Recorder) ReplayResidentBytes() int64 {
	b := rc.residentBytes
	if rc.spilledChunks > 0 {
		b += int64(max(1, 2*decodeLanes(len(rc.chunks)))) * rc.maxChunkBytes
	}
	return b
}

// SpilledChunks returns how many chunks were written to the spill file.
func (rc *Recorder) SpilledChunks() int64 { return rc.spilledChunks }

// Seal marks recording complete: the staging tail is encoded and released,
// further ConsumeBatch panics, and the Recorder may be replayed concurrently
// from any number of goroutines. Sealing is idempotent. The caller must establish
// a happens-before edge between Seal and the first concurrent Replay
// (publishing the Recorder through a mutex-guarded cache, a channel, or
// sync.Once all qualify).
func (rc *Recorder) Seal() {
	if rc.sealed {
		return
	}
	if rc.cols != nil {
		rc.FlushColumns()
		putCols(rc.cols)
		rc.cols = nil
	}
	if rc.enc != nil {
		encoderPool.Put(rc.enc)
		rc.enc = nil
	}
	rc.sealed = true
}

// Sealed reports whether the Recorder has been sealed.
func (rc *Recorder) Sealed() bool { return rc.sealed }

// Close releases the spill file, if any. Replays must not be in flight.
// Close is optional — the spill file is unlinked at creation and the
// process's file-descriptor finalizer reclaims it when the Recorder is
// garbage-collected — but deterministic for tests and long-lived owners.
func (rc *Recorder) Close() error {
	if rc.spill == nil {
		return nil
	}
	err := rc.spill.close()
	rc.spill = nil
	return err
}

// ConsumeBatch implements Consumer by copying b into the staging columns,
// the same representation the fused VM loop writes directly.
func (rc *Recorder) ConsumeBatch(b *Batch) {
	st := rc.ColumnStage()
	if st == nil {
		panic("trace: ConsumeBatch on a sealed Recorder (recording after publication)")
	}
	for k := 0; k < b.N; {
		m := min(b.N-k, st.Cap()-st.N)
		st.appendBatch(b, k, m)
		k += m
		if st.N == st.Cap() {
			st = rc.FlushColumns()
		}
	}
}

// ColumnStage implements ColumnAppender: it returns the live staging
// columns for fused recording, or nil once the recorder is sealed. The
// producer appends by writing element N of every column and incrementing N,
// calling FlushColumns when N reaches Cap.
func (rc *Recorder) ColumnStage() *RecordColumns {
	if rc.sealed {
		return nil
	}
	if rc.cols == nil {
		rc.cols = getCols()
		rc.cols.FirstSeq = rc.nFlushed
	}
	return rc.cols
}

// FlushColumns encodes the staged columns into one chunk (retained or
// spilled) and returns the emptied stage to continue appending into.
func (rc *Recorder) FlushColumns() *RecordColumns {
	st := rc.ColumnStage()
	if st == nil || st.N == 0 {
		return st
	}
	start := time.Now()
	if rc.enc == nil {
		rc.enc = encoderPool.Get().(*chunkEncoder)
	}
	enc := rc.enc
	enc.buf = enc.encodeCols(enc.buf[:0], st, true)
	rc.appendEncoded(enc.buf, st.N)
	rc.encodeTime += time.Since(start)
	rc.nFlushed += int64(st.N)
	st.N = 0
	st.FirstSeq = rc.nFlushed
	return st
}

// FlushTail implements ColumnAppender. The Recorder buffers: the partial
// stage stays staged (replayable as the tail, encoded at Seal), so there is
// nothing to do.
func (rc *Recorder) FlushTail() {}

// encoderPool recycles chunkEncoders — their per-column scratch and the
// encode output buffer — across Recorders. Encoding into pooled scratch and
// copying out exactly the retained bytes (nothing at all for spilled
// chunks) is what keeps the recording path's steady-state allocation to one
// right-sized chunk copy, measured by BenchmarkVMStepsRecording.
var encoderPool = sync.Pool{New: func() any { return new(chunkEncoder) }}

// appendEncoded retains one encoded chunk resident — or spills it when past
// the memory budget — and appends it to the chunk index.
func (rc *Recorder) appendEncoded(data []byte, n int) {
	c := rchunk{size: int32(len(data)), n: int32(n), firstSeq: rc.nFlushed}
	rc.encodedBytes += int64(len(data))
	rc.maxChunkBytes = max(rc.maxChunkBytes, int64(len(data)))
	if rc.memBudget > 0 && rc.residentBytes+int64(len(data)) > rc.memBudget {
		if rc.spill == nil {
			sf, err := newSpillFile()
			if err != nil {
				panic("trace: create spill file: " + err.Error())
			}
			rc.spill = sf
		}
		off, err := rc.spill.write(data)
		if err != nil {
			panic("trace: write spill chunk: " + err.Error())
		}
		c.off = off
		rc.spilledChunks++
	} else {
		c.data = append([]byte(nil), data...)
		rc.residentBytes += int64(len(data))
	}
	rc.chunks = append(rc.chunks, c)
}

// loadBatch decodes chunk i into b: resident chunks in place, spilled ones
// after one positional read into the batch-owned scratch (so pipelined
// reads never alias a batch a consumer still holds).
func (rc *Recorder) loadBatch(b *Batch, i int) {
	c := &rc.chunks[i]
	data := c.data
	if data == nil {
		data = b.spillBuf(int(c.size))
		if _, err := rc.spill.f.ReadAt(data, c.off); err != nil {
			panic(fmt.Sprintf("trace: read spilled chunk: %v", err))
		}
	}
	mustDecodeBatch(b, data, c.firstSeq)
}

// decodeLanes picks the decode-ahead width for a replay pass: one lane per
// spare CPU up to six, zero — the inline sequential walk — when the machine
// is single-core or the trace too small to pipeline.
func decodeLanes(nchunks int) int {
	return max(0, min(runtime.GOMAXPROCS(0)-1, 6, nchunks-1))
}

// walkBatches streams every encoded chunk through fn as a decoded Batch, in
// record order. On
// multi-core machines the decode runs ahead of the consumer on a small pool
// of worker lanes: chunk i is decoded on lane i%lanes while the consumer
// walks earlier batches. Each lane owns two batches (decode one while the
// consumer holds the other); delivery is strictly round-robin, which keeps
// record order without a reordering buffer. Each batch is valid only until
// fn returns. The staging tail is not walked.
func (rc *Recorder) walkBatches(fn func(b *Batch)) {
	nchunks := len(rc.chunks)
	lanes := decodeLanes(nchunks)
	if lanes == 0 {
		b := getBatch()
		defer putBatch(b)
		for i := range rc.chunks {
			rc.loadBatch(b, i)
			fn(b)
		}
		return
	}

	type lane struct {
		out  chan *Batch // decoded batches, in this lane's chunk order
		free chan *Batch // batches returned by the consumer
	}
	ls := make([]lane, lanes)
	done := make(chan struct{})
	panics := make(chan any, lanes)
	var wg sync.WaitGroup
	for w := range ls {
		ls[w] = lane{out: make(chan *Batch, 1), free: make(chan *Batch, 2)}
		ls[w].free <- getBatch()
		ls[w].free <- getBatch()
		wg.Add(1)
		go func(w int, ln lane) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
					close(ln.out)
				}
			}()
			for i := w; i < nchunks; i += lanes {
				var b *Batch
				select {
				case b = <-ln.free:
				case <-done:
					return
				}
				rc.loadBatch(b, i)
				select {
				case ln.out <- b:
				case <-done:
					return
				}
			}
			close(ln.out)
		}(w, ls[w])
	}
	// Runs on normal return and when fn panics: every lane exits before the
	// walk returns, and the batches still parked in lanes go back to the
	// pool (a lane that aborted mid-decode keeps its batch for the GC).
	defer func() {
		close(done)
		wg.Wait()
		for _, ln := range ls {
			close(ln.free) // no lane sends on free; ranging drains it
			for b := range ln.free {
				putBatch(b)
			}
			select {
			case b, ok := <-ln.out:
				if ok {
					putBatch(b)
				}
			default:
			}
		}
	}()
	for i := 0; i < nchunks; i++ {
		ln := ls[i%lanes]
		b, ok := <-ln.out
		if !ok {
			panic(<-panics)
		}
		fn(b)
		ln.free <- b
	}
}

// Replay feeds the recorded stream to the consumers, in stream order per
// consumer: a single MultiEval pass with one undirected configuration each.
// Consumers receive whole decoded chunks under the live-run contract (valid
// only for the duration of the ConsumeBatch call, read-only).
func (rc *Recorder) Replay(consumers ...Consumer) {
	rc.MultiEval(configs(nil, consumers)...)
}

// ReplayDirs replays the recorded stream with the directive of each record
// overridden by dirs[Addr] (DirNone for addresses outside dirs). Annotation
// changes only the directive bits of a program — no code motion — so
// replaying a plain-program trace under an annotated program's directives is
// bit-identical to re-executing the annotated program. The patch is applied
// to per-pass scratch; the recorded chunks are never modified, keeping
// concurrent replays safe.
func (rc *Recorder) ReplayDirs(dirs []isa.Directive, consumers ...Consumer) {
	if dirs == nil {
		dirs = []isa.Directive{} // a nil table would mean "recorded directives"
	}
	rc.MultiEval(configs(dirs, consumers)...)
}

// configs pairs every consumer with the same directive table.
func configs(dirs []isa.Directive, consumers []Consumer) []EvalConfig {
	cfgs := make([]EvalConfig, len(consumers))
	for i, c := range consumers {
		cfgs[i] = EvalConfig{Dirs: dirs, Consumer: c}
	}
	return cfgs
}

// DirsOf extracts the per-address directive table of a text segment, the
// input ReplayDirs expects. It lives here (rather than in the program
// package) so replay callers need only the text slice.
func DirsOf(text []isa.Instruction) []isa.Directive {
	dirs := make([]isa.Directive, len(text))
	for i := range text {
		dirs[i] = text[i].Dir
	}
	return dirs
}
