package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/isa"
)

// This file is the test oracle the record and replay paths are checked
// against: the input stream itself, kept as a plain []Record, with
// directive patches applied one record at a time, and a per-record
// reference encoder that pins the chunk byte format independently of the
// column encoder. (For the fused VM recorder the oracle is the VM's
// reference step loop; see the differential suite in package vm.)

// oracleDirs returns recs with each directive replaced by dirs[Addr], or
// DirNone for addresses outside dirs — what ReplayDirs must deliver.
func oracleDirs(recs []Record, dirs []isa.Directive) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		if r.Addr >= 0 && r.Addr < int64(len(dirs)) {
			r.Dir = dirs[r.Addr]
		} else {
			r.Dir = isa.DirNone
		}
		out[i] = r
	}
	return out
}

// appendZigzag appends the zigzag varint of v to dst.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// refEncode is the per-record reference encoder of the chunk format
// documented in codec.go: every field packed and every varint emitted one
// record at a time.
func refEncode(recs []Record, firstSeq int64, withSeq bool) []byte {
	var ops, flags, dest, reads, addr, value, mem, phase, seq []byte
	var prev Record
	for i, r := range recs {
		f := byte(r.Dir) << 4
		for bit, set := range []bool{r.HasDest, r.DestFP, r.Taken, r.HasMem} {
			if set {
				f |= 1 << bit
			}
		}
		ops = append(ops, byte(r.Op))
		flags = append(flags, f)
		dest = append(dest, byte(r.Dest))
		reads = append(reads, packRead(r.Reads[0]), packRead(r.Reads[1]))
		addr = appendZigzag(addr, r.Addr-prev.Addr)
		value = appendZigzag(value, r.Value)
		mem = appendZigzag(mem, r.MemAddr-prev.MemAddr)
		phase = appendZigzag(phase, int64(r.Phase)-int64(prev.Phase))
		seq = appendZigzag(seq, r.Seq-(firstSeq+int64(i)))
		prev = r
	}
	dst := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, col := range [][]byte{ops, flags, dest, reads} {
		dst = append(dst, col...)
	}
	cols := [][]byte{addr, value, mem, phase, seq}
	if !withSeq {
		cols = cols[:chunkColumns-1]
	}
	for _, col := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		dst = append(dst, col...)
	}
	return dst
}

// colsOf stages recs into a fresh column stage, as a fused producer would.
func colsOf(recs []Record, firstSeq int64) *RecordColumns {
	st := newRecordColumns(len(recs))
	st.FirstSeq = firstSeq
	for i := range recs {
		st.AppendRecord(&recs[i])
	}
	return st
}

// encode runs recs through the production column encoder.
func (e *chunkEncoder) encode(dst []byte, recs []Record, firstSeq int64, withSeq bool) []byte {
	return e.encodeCols(dst, colsOf(recs, firstSeq), withSeq)
}

// decodeChunk decodes one chunk through the production batch decoder into
// out (strict adds the file reader's Op/Dir validation), returning the
// record count.
func decodeChunk(out []Record, data []byte, firstSeq int64, withSeq, strict bool) (int, error) {
	var d chunkDecoder
	if err := d.init(data, firstSeq, withSeq); err != nil {
		return 0, err
	}
	var b Batch
	err := d.decodeBatch(&b)
	if err == nil && strict {
		err = b.checkOpDir()
	}
	if err != nil {
		return 0, err
	}
	if b.N > len(out) {
		return 0, fmt.Errorf("trace: chunk holds %d records, buffer %d", b.N, len(out))
	}
	for i := 0; i < b.N; i++ {
		b.Record(i, &out[i])
	}
	return b.N, nil
}

// chunkBytes seals rc and collects every encoded chunk, resident or
// spilled.
func chunkBytes(t *testing.T, rc *Recorder) [][]byte {
	t.Helper()
	rc.Seal()
	var chunks [][]byte
	for _, c := range rc.chunks {
		data := c.data
		if data == nil {
			data = make([]byte, c.size)
			if _, err := rc.spill.f.ReadAt(data, c.off); err != nil {
				t.Fatal(err)
			}
		}
		chunks = append(chunks, append([]byte(nil), data...))
	}
	return chunks
}

// push stages one record into a Recorder or Writer: the per-record producer
// path the VM's reference step loop takes.
func push(ca ColumnAppender, r *Record) {
	st := ca.ColumnStage()
	st.AppendRecord(r)
	if st.N == st.Cap() {
		ca.FlushColumns()
	}
}

// readAll drains a trace-file reader into records, returning those read
// before any error.
func readAll(tr *Reader) ([]Record, error) {
	var out []Record
	for {
		b, err := tr.NextBatch()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		for i := 0; i < b.N; i++ {
			var r Record
			b.Record(i, &r)
			out = append(out, r)
		}
	}
}
