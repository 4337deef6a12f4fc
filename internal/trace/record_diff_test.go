package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// This file is the record-side differential suite: the column recording
// path (RecordColumns staging + chunkEncoder.encodeCols) must be
// byte-identical to the per-record reference encoder (refEncode), end to
// end — same chunks in the Recorder, same frames in the trace file.

// widthStreams builds record streams engineered to drive each speculative
// column-width path of appendCol: all-one-byte varints, exact two-byte
// varints, and irregular mixes.
func widthStreams() map[string][]Record {
	mk := func(n int, f func(i int64, r *Record)) []Record {
		recs := make([]Record, n)
		for i := range recs {
			r := synthRecord(int64(i))
			f(int64(i), &r)
			recs[i] = r
		}
		return recs
	}
	return map[string][]Record{
		// Constant fields: every delta zero, every column one-byte uniform.
		"uniform1": mk(300, func(i int64, r *Record) {
			r.Addr, r.Value, r.MemAddr, r.Phase, r.Seq = 7, 3, 9, 1, i
		}),
		// Deltas of ±100 zigzag to 199/200 — in [0x80, 0x4000), exactly two
		// canonical bytes each, driving the uniform two-byte emitter.
		"uniform2": mk(300, func(i int64, r *Record) {
			r.Addr = 100 * i
			r.Value = 100 + i%64
			r.MemAddr = -100 * i
			r.Phase = int(100 * i)
			r.Seq = i
		}),
		// A one-byte delta spliced into a two-byte run: sums to an ambiguous
		// length only the element-wise validation rejects, forcing the generic
		// encoder (and generic decode) without changing the payload length
		// class.
		"mixed": mk(257, func(i int64, r *Record) {
			r.Addr = 100 * i
			if i == 128 {
				r.Addr = 100*i - 99 // one small delta mid-run
			}
			r.Value = i * i * 31
			r.MemAddr = i << uint(i%5)
			r.Seq = i
		}),
		// Large magnitudes: multi-byte varints throughout.
		"wide": mk(100, func(i int64, r *Record) {
			r.Addr = i * (1 << 40)
			r.Value = (i - 50) * (1 << 50)
			r.MemAddr = i * (1 << 33)
			r.Seq = i
		}),
	}
}

// TestEncodeColsMatchesEncode pins the chunk byte format: encoding a staged
// column chunk must produce byte-for-byte the same output as the per-record
// reference encoder, for every column-width speculation path and for random
// streams.
func TestEncodeColsMatchesEncode(t *testing.T) {
	streams := widthStreams()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 100, recorderChunkSize} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecord(rng, int64(i))
			if rng.Intn(4) == 0 {
				recs[i].Seq = rng.Int63() - rng.Int63()
			}
		}
		streams["random"+string(rune('a'+len(streams)))] = recs
	}
	for name, recs := range streams {
		for _, withSeq := range []bool{true, false} {
			var colEnc chunkEncoder
			want := refEncode(recs, 0, withSeq)
			got := colEnc.encodeCols(nil, colsOf(recs, 0), withSeq)
			if !bytes.Equal(want, got) {
				t.Errorf("%s withSeq=%v: encodeCols differs from encode (%d vs %d bytes)",
					name, withSeq, len(got), len(want))
			}
		}
	}
}

// TestFusedRecorderMatchesScalarRecord records one stream through the
// Recorder and requires every encoded chunk to be byte-identical to the
// per-record reference encoding of the same records, and the replay (before
// and after Seal) to equal the oracle stream — resident and fully spilled.
func TestFusedRecorderMatchesScalarRecord(t *testing.T) {
	const n = 2*recorderChunkSize + 345
	rng := rand.New(rand.NewSource(21))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	for _, budget := range []int64{0, 1} {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		for i := range recs {
			push(rc, &recs[i])
		}
		defer rc.Close()
		var unsealed capture
		rc.Replay(&unsealed) // pre-seal replay: staging tail as a batch
		if !reflect.DeepEqual(recs, unsealed.recs) {
			t.Fatalf("budget %d: pre-seal replay differs from the oracle stream", budget)
		}
		got := chunkBytes(t, rc)
		if len(got) != 3 {
			t.Fatalf("budget %d: recorder wrote %d chunks, want 3", budget, len(got))
		}
		for i := range got {
			lo, hi := i*recorderChunkSize, min((i+1)*recorderChunkSize, n)
			if !bytes.Equal(got[i], refEncode(recs[lo:hi], int64(lo), true)) {
				t.Fatalf("budget %d: chunk %d differs from the reference encoding", budget, i)
			}
		}
		if budget > 0 && rc.SpilledChunks() == 0 {
			t.Fatalf("budget %d: nothing spilled (spill path not exercised)", budget)
		}
		var sealed capture
		rc.Replay(&sealed)
		if !reflect.DeepEqual(recs, sealed.recs) {
			t.Fatalf("budget %d: sealed replay differs from the oracle stream", budget)
		}
	}
}

// TestColumnSinkMatchesScalarDelivery checks the ColumnSink adapter: a
// record stream staged into a sink one record at a time (the VM step loop's
// path) must reach the consumer as the same records, in one batch per full
// stage plus the partial tail.
func TestColumnSinkMatchesScalarDelivery(t *testing.T) {
	const n = sinkChunkSize + 99
	var want []Record
	var got capture
	sink := NewColumnSink(&got)
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		r.Seq = i
		want = append(want, r)
		push(sink, &r)
	}
	sink.Close()
	if !reflect.DeepEqual(want, got.recs) {
		t.Fatal("ColumnSink delivery differs from the staged records")
	}
	if got.batches != 2 {
		t.Fatalf("sink delivered %d batches, want 2 (stage + tail)", got.batches)
	}
}

// writeFile fills a Writer through fill and returns the file bytes.
func writeFile(t *testing.T, fill func(tw *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fill(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterProducerPathsMatch drives the trace-file Writer through its three
// producer paths — per-record staging (the VM step loop), ConsumeBatch
// (replay), and fused column staging (the VM fused loop) — and requires
// byte-identical files.
func TestWriterProducerPathsMatch(t *testing.T) {
	const n = 2*fileChunkSize + 333
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = synthRecord(int64(i))
	}
	rc := NewRecorder()
	for i := range recs {
		push(rc, &recs[i])
	}
	rc.Seal()
	defer rc.Close()

	scalar := writeFile(t, func(tw *Writer) {
		for i := range recs {
			push(tw, &recs[i])
		}
	})
	batch := writeFile(t, func(tw *Writer) { rc.Replay(tw) })
	if !bytes.Equal(scalar, batch) {
		t.Error("batch-replay file differs from the per-record staged file")
	}
	fused := writeFile(t, func(tw *Writer) {
		st := tw.ColumnStage()
		for i := range recs {
			if st.N == st.Cap() {
				st = tw.FlushColumns()
			}
			st.AppendRecord(&recs[i])
		}
		tw.FlushTail()
	})
	if !bytes.Equal(scalar, fused) {
		t.Error("fused column-staged file differs from the per-record staged file")
	}
}

// FuzzColumnEncodeRoundTrip drives arbitrary integer columns through the
// speculative uniform-width encode path (appendDeltaCol/appendRawCol) and the
// matching speculative decoders, checking the round trip is the identity and
// the encoding matches the scalar varint reference byte for byte.
func FuzzColumnEncodeRoundTrip(f *testing.F) {
	f.Add(int64(0), uint16(1), int64(1), false)
	f.Add(int64(5), uint16(300), int64(100), true)
	f.Add(int64(-3), uint16(2000), int64(1<<40), true)
	f.Fuzz(func(t *testing.T, seed int64, count uint16, scale int64, delta bool) {
		n := int(count%4096) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		if scale == 0 {
			scale = 1
		}
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = rng.Int63n(64) - 32 // one-byte zigzag territory
			case 1:
				v := 64 + rng.Int63n(8128) // two-byte zigzag territory
				if rng.Intn(2) == 0 {
					v = -v
				}
				vals[i] = v
			default:
				vals[i] = rng.Int63()%scale - rng.Int63()%scale
			}
		}
		// Reference: scalar canonical zigzag varints with the same
		// delta/raw transform the column encoder applies.
		var ref []byte
		var prev int64
		for _, v := range vals {
			z := v
			if delta {
				z = v - prev
				prev = v
			}
			ref = appendZigzag(ref, z)
		}

		var enc chunkEncoder
		zz := make([]uint64, n)
		var got []byte
		if delta {
			got = enc.appendDeltaCol(nil, vals, zz)
		} else {
			got = enc.appendRawCol(nil, vals, zz)
		}
		// The column is emitted length-prefixed; strip the prefix to compare
		// against the bare reference bytes.
		l64, hdr := uvarint(t, got)
		body := got[hdr:]
		if int(l64) != len(body) {
			t.Fatalf("column length prefix %d, body %d bytes", l64, len(body))
		}
		if !bytes.Equal(body, ref) {
			t.Fatalf("speculative column encode differs from scalar varint reference")
		}

		out := make([]int64, n)
		if err := decodeVarintCol(body, out, delta); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(out, vals) {
			t.Fatal("column round trip differs")
		}
	})
}

// uvarint decodes one uvarint prefix or fails the test.
func uvarint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	t.Fatal("truncated uvarint")
	return 0, 0
}
