package trace

import (
	"sync"

	"repro/internal/isa"
)

// This file defines the record-side staging surface: the write-side twin of
// batch.go. The VM dispatch loop writes the destructured record fields
// straight into per-chunk SoA columns (plain byte/int64 stores, no Record,
// no interface call), and the zigzag-delta/varint compression runs once per
// chunk at flush time through the speculative uniform-width encoders of
// codec.go. The VM's reference step loop destructures whole Records into
// the same columns (AppendRecord), and batch producers copy theirs in
// (appendBatch), so every path reaches one encoder.

// RecordColumns is one chunk of staged records as parallel columns: element
// i of every column carries the field Record i would. The byte columns use
// exactly the packed layout of the chunk codec (flags bits, read-operand
// bits), so sealing a stage is a memcpy for the fixed columns and a
// delta/varint pass for the integer columns.
type RecordColumns struct {
	// N is the number of staged records. A fused producer appends by
	// writing element N of every column and incrementing N; it must flush
	// (and restage) once N reaches Cap.
	N int
	// FirstSeq is the stream position of element 0.
	FirstSeq int64

	// Op holds the raw opcode bytes.
	Op []byte
	// Flags holds the packed boolean fields and directive:
	// bit0 HasDest, bit1 DestFP, bit2 Taken, bit3 HasMem, bits4-5 Dir.
	Flags []byte
	// Dest holds the destination register numbers.
	Dest []byte
	// Reads holds two bytes per record, one per source operand:
	// bit7 Valid, bit6 FP, bits 0-5 the register number.
	Reads []byte

	// Addr, Value, Mem, Phase and Seq are the raw (untransformed) integer
	// fields; the chunk codec delta-compresses them at flush time.
	Addr  []int64
	Value []int64
	Mem   []int64
	Phase []int64
	Seq   []int64
}

// Cap returns the stage's record capacity.
func (st *RecordColumns) Cap() int { return len(st.Op) }

// packRead packs one source-operand read into the codec's byte layout.
func packRead(rd RegRead) byte {
	var b byte
	if rd.Valid {
		b = 0x80 | byte(rd.Reg)&0x3f
		if rd.FP {
			b |= 0x40
		}
	}
	return b
}

// AppendRecord destructures r into the columns — the per-record producer's
// entry into column staging. The caller must guarantee room (N < Cap).
func (st *RecordColumns) AppendRecord(r *Record) {
	i := st.N
	st.Op[i] = byte(r.Op)
	f := byte(r.Dir) << 4
	if r.HasDest {
		f |= 1
	}
	if r.DestFP {
		f |= 2
	}
	if r.Taken {
		f |= 4
	}
	if r.HasMem {
		f |= 8
	}
	st.Flags[i] = f
	st.Dest[i] = byte(r.Dest)
	st.Reads[2*i] = packRead(r.Reads[0])
	st.Reads[2*i+1] = packRead(r.Reads[1])
	st.Addr[i] = r.Addr
	st.Value[i] = r.Value
	st.Mem[i] = r.MemAddr
	st.Phase[i] = int64(r.Phase)
	st.Seq[i] = r.Seq
	st.N = i + 1
}

// appendBatch copies records [k, k+m) of b into the stage, which must have
// room for them. The flags bytes are rebuilt from the Dir column, so a
// directive patch applied by the replay lands in the stage exactly as it
// would in a re-executed run.
func (st *RecordColumns) appendBatch(b *Batch, k, m int) {
	i := st.N
	copy(st.Op[i:], b.Op[k:k+m])
	copy(st.Dest[i:], b.Dest[k:k+m])
	copy(st.Reads[2*i:], b.Reads[2*k:2*(k+m)])
	copy(st.Addr[i:], b.Addr[k:k+m])
	copy(st.Value[i:], b.Value[k:k+m])
	copy(st.Mem[i:], b.MemAddr[k:k+m])
	copy(st.Phase[i:], b.Phase[k:k+m])
	copy(st.Seq[i:], b.Seq[k:k+m])
	for j := 0; j < m; j++ {
		st.Flags[i+j] = b.Flags[k+j]&0x0f | byte(b.Dir[k+j])<<4
	}
	st.N = i + m
}

// batch exposes the staged records as a Batch aliasing the stage columns,
// with the directive column unpacked into dir (len ≥ N) — how a ColumnSink
// delivers a stage and how a replay hands out an unsealed Recorder's tail.
func (st *RecordColumns) batch(b *Batch, dir []isa.Directive) {
	n := st.N
	dir = dir[:n]
	for i, f := range st.Flags[:n] {
		dir[i] = isa.Directive(f >> 4)
	}
	*b = Batch{
		N:        n,
		FirstSeq: st.FirstSeq,
		Op:       st.Op[:n],
		Flags:    st.Flags[:n],
		Dest:     st.Dest[:n],
		Reads:    st.Reads[:2*n],
		Dir:      dir,
		Addr:     st.Addr[:n],
		Value:    st.Value[:n],
		MemAddr:  st.Mem[:n],
		Phase:    st.Phase[:n],
		Seq:      st.Seq[:n],
	}
}

// newRecordColumns allocates a stage of capacity n.
func newRecordColumns(n int) *RecordColumns {
	return &RecordColumns{
		Op:    make([]byte, n),
		Flags: make([]byte, n),
		Dest:  make([]byte, n),
		Reads: make([]byte, 2*n),
		Addr:  make([]int64, n),
		Value: make([]int64, n),
		Mem:   make([]int64, n),
		Phase: make([]int64, n),
		Seq:   make([]int64, n),
	}
}

// colsPool recycles chunk-sized stages across Recorders (~0.6 MiB each).
var colsPool = sync.Pool{New: func() any { return newRecordColumns(recorderChunkSize) }}

func getCols() *RecordColumns {
	st := colsPool.Get().(*RecordColumns)
	st.N = 0
	st.FirstSeq = 0
	return st
}

func putCols(st *RecordColumns) { colsPool.Put(st) }

// sinkChunkSize is the stage size of a ColumnSink. A sink only carries a
// live run to its consumers, so its stage need not match the Recorder's
// chunk; at 2048 records (~90 KiB of columns) the stage stays
// cache-resident between the VM writing it and the consumers reading it
// back, which measured faster on the live ILP runs of ext:sched, ext:hybrid
// and table5.2 than chunk-sized stages.
const sinkChunkSize = 1 << 11

// sinkPool recycles ColumnSink stages.
var sinkPool = sync.Pool{New: func() any { return newRecordColumns(sinkChunkSize) }}

// ColumnAppender accepts fused column appends. The VM detects a sole
// consumer that is a ColumnAppender once at run start: when ColumnStage
// returns a non-nil stage the VM writes destructured record fields straight
// into the stage's columns, calling FlushColumns each time the stage fills
// and FlushTail once when the run ends (halt or error). Any other set of
// consumers is served through a ColumnSink, itself a ColumnAppender. The
// Recorder and the file Writer are both ColumnAppenders and Consumers.
type ColumnAppender interface {
	// ColumnStage returns the live staging columns, or nil when fused
	// recording is unavailable.
	ColumnStage() *RecordColumns
	// FlushColumns seals the filled stage and returns the (empty) stage to
	// continue appending into.
	FlushColumns() *RecordColumns
	// FlushTail settles a partially filled stage at end of run. Buffering
	// appenders (the Recorder) may keep the tail staged; delivering
	// appenders (ColumnSink) must hand it to their consumers.
	FlushTail()
}

// ColumnSink adapts consumers into a ColumnAppender: the VM stages columns
// and the sink hands each filled stage to every consumer in attach order as
// one Batch — so a live run feeds column kernels (the profiler's training
// pass, prediction engines, the ILP machine) at chunk granularity with no
// per-record dispatch, exactly as replay does for sealed traces. Batches
// are delivered in stream order, valid only for the duration of the
// ConsumeBatch call.
type ColumnSink struct {
	cs    []Consumer
	st    *RecordColumns
	dir   []isa.Directive
	batch Batch
	n     int64
}

// NewColumnSink returns a sink feeding cs. Call Close when done to deliver
// the tail and return the pooled stage.
func NewColumnSink(cs ...Consumer) *ColumnSink {
	st := sinkPool.Get().(*RecordColumns)
	st.N, st.FirstSeq = 0, 0
	return &ColumnSink{cs: cs, st: st, dir: make([]isa.Directive, sinkChunkSize)}
}

// ColumnStage implements ColumnAppender.
func (s *ColumnSink) ColumnStage() *RecordColumns { return s.st }

// FlushColumns delivers the staged columns to every consumer as one Batch.
func (s *ColumnSink) FlushColumns() *RecordColumns {
	st := s.st
	if st.N == 0 {
		return st
	}
	st.batch(&s.batch, s.dir)
	for _, c := range s.cs {
		c.ConsumeBatch(&s.batch)
	}
	s.n += int64(st.N)
	st.N = 0
	st.FirstSeq = s.n
	return st
}

// FlushTail delivers any partially filled stage.
func (s *ColumnSink) FlushTail() { s.FlushColumns() }

// Close flushes the tail and returns the pooled stage. The sink must not be
// used afterwards.
func (s *ColumnSink) Close() {
	s.FlushColumns()
	if s.st != nil {
		sinkPool.Put(s.st)
		s.st = nil
	}
}
