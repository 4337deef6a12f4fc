package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// writeV1 builds a VPTRC01 file: the legacy fixed 40-byte layout, which
// nothing writes any more but readers still accept as outside input.
func writeV1(recs []Record) []byte {
	out := append([]byte(nil), fileMagicV1[:]...)
	for _, r := range recs {
		var buf [v1RecordSize]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Addr))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Seq))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.Value))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.MemAddr))
		buf[32] = uint8(r.Op)
		buf[33] = uint8(r.Dir)
		for bit, set := range []bool{r.HasDest, r.DestFP, r.Taken, r.HasMem} {
			if set {
				buf[34] |= 1 << bit
			}
		}
		buf[35] = uint8(r.Dest)
		binary.LittleEndian.PutUint16(buf[36:], uint16(r.Phase))
		buf[38], buf[39] = packRead(r.Reads[0]), packRead(r.Reads[1])
		out = append(out, buf[:]...)
	}
	return out
}

// writeFormat returns recs as a trace file in the given format.
func writeFormat(t *testing.T, format Format, recs []Record) []byte {
	t.Helper()
	if format == FormatV1 {
		return writeV1(recs)
	}
	return encodeV2(t, recs)
}

// encodeV2 writes recs through a v2 Writer and returns the file bytes.
func encodeV2(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		push(w, &recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFileV2MultiFrame crosses the per-frame record limit so the stream
// holds several frames plus a partial tail frame, and checks positional Seq
// keeps counting across frame boundaries.
func TestFileV2MultiFrame(t *testing.T) {
	const n = fileChunkSize*2 + 100
	recs := synthStream(0, n)
	data := encodeV2(t, recs)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs:\nwant %+v\ngot  %+v", i, recs[i], got[i])
		}
	}
	t.Logf("v2: %.2f bytes/record over %d records", float64(len(data))/float64(n), n)
}

// TestFileV2TruncationAtEveryOffset cuts a two-frame trace at every byte
// offset. Every prefix must either read a whole number of leading frames and
// then fail with a non-EOF error, or — when the cut lands exactly on a frame
// boundary — end with a clean io.EOF after the complete frames.
func TestFileV2TruncationAtEveryOffset(t *testing.T) {
	recs := synthStream(0, 700)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		push(w, &recs[i])
	}
	if err := w.Flush(); err != nil { // force a frame boundary at 400 records
		t.Fatal(err)
	}
	for i := 400; i < len(recs); i++ {
		push(w, &recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Locate the frame boundaries: magic end, end of frame 1, end of file.
	boundaries := map[int]int{8: 0} // offset -> records readable to that point
	off := 8
	for off < len(full) {
		size := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += 8 + size
		n := 400
		if off == len(full) {
			n = len(recs)
		}
		boundaries[off] = n
	}

	for cut := 0; cut <= len(full); cut++ {
		prefix := full[:cut]
		r, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			if cut >= 8 {
				t.Fatalf("cut %d: NewReader: %v", cut, err)
			}
			continue // magic itself truncated: rejected up front, as it must be
		}
		got, err := readAll(r)
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("cut %d: record %d differs", cut, i)
			}
		}
		read := len(got)
		if wantRecs, clean := boundaries[cut]; clean {
			if err != nil {
				t.Fatalf("cut %d (frame boundary): err = %v, want a clean end", cut, err)
			}
			if read != wantRecs {
				t.Fatalf("cut %d: read %d records, want %d", cut, read, wantRecs)
			}
		} else {
			if err == nil {
				t.Fatalf("cut %d (mid-frame): err = %v, want truncation/corruption error", cut, err)
			}
			// A mid-frame cut must never hand out records from the cut frame.
			if read != 0 && read != 400 {
				t.Fatalf("cut %d: read %d records from a truncated frame", cut, read)
			}
		}
	}
}

// flakyWriter accepts bytes until failAfter, then fails with a partial
// write — the shape of a real disk-full failure.
type flakyWriter struct {
	accepted  int
	failAfter int
}

var errDiskFull = errors.New("disk full")

func (fw *flakyWriter) Write(p []byte) (int, error) {
	room := fw.failAfter - fw.accepted
	if room >= len(p) {
		fw.accepted += len(p)
		return len(p), nil
	}
	if room < 0 {
		room = 0
	}
	fw.accepted += room
	return room, errDiskFull
}

// TestWriterSurfacesWriteError is the error-handling regression test: a
// failing io.Writer must surface the first error from Flush/Close with the
// failing record index and byte offset, and count the records dropped after
// the failure instead of losing them silently.
func TestWriterSurfacesWriteError(t *testing.T) {
	t.Run(FormatV2.String(), func(t *testing.T) {
		fw := &flakyWriter{failAfter: 200}
		w, err := NewWriter(fw)
		if err != nil {
			t.Fatal(err)
		}
		recs := synthStream(0, fileChunkSize+50)
		for i := range recs {
			push(w, &recs[i])
			if i%64 == 0 {
				w.Flush() // push frames at the failing writer mid-stream
			}
		}
		err = w.Close()
		if err == nil {
			t.Fatal("Close returned nil after write failures")
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("Close error %v does not wrap the writer's error", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "record") || !strings.Contains(msg, "byte offset") {
			t.Errorf("error lacks record/offset diagnostics: %v", err)
		}
		if w.Dropped() == 0 {
			t.Error("Dropped = 0, want records counted after the first failure")
		}
		if !strings.Contains(msg, fmt.Sprintf("%d records dropped", w.Dropped())) {
			t.Errorf("error does not report the dropped count: %v", err)
		}
		// The error is sticky: Flush keeps returning it.
		if err2 := w.Flush(); err2 == nil || !errors.Is(err2, errDiskFull) {
			t.Errorf("Flush after failure = %v, want the sticky error", err2)
		}
	})
}

// TestWriterDrainsAfterWriteError: once the output has failed, full frame
// stages keep draining (counted as dropped) so a producer writing the stage
// directly — the VM's fused loop — never finds it stuck full.
func TestWriterDrainsAfterWriteError(t *testing.T) {
	w, err := NewWriter(&flakyWriter{failAfter: len(fileMagicV2)})
	if err != nil {
		t.Fatal(err)
	}
	recs := synthStream(0, 3*fileChunkSize+7)
	for i := range recs {
		push(w, &recs[i])
	}
	if st := w.ColumnStage(); st.N == st.Cap() {
		t.Fatal("frame stage stuck full after a write error")
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if w.Dropped() != int64(len(recs)) {
		t.Fatalf("dropped %d records, want all %d (no frame was written)", w.Dropped(), len(recs))
	}
}

// TestWriterErrorOffsetPointsAtFailure pins the reported record index and
// byte offset to the frame the failure struck: with one frame per record, a
// writer that accepts the magic plus two frames fails at record 2, at the
// offset where the third frame began.
func TestWriterErrorOffsetPointsAtFailure(t *testing.T) {
	recs := synthStream(0, 5)
	frames := 0
	for i := range recs[:2] {
		frames += len(encodeV2(t, recs[i:i+1])) - len(fileMagicV2)
	}
	fw := &flakyWriter{failAfter: len(fileMagicV2) + frames}
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		push(w, &recs[i])
		w.Flush()
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close returned nil")
	}
	want := fmt.Sprintf("record 2 (byte offset %d)", len(fileMagicV2)+frames)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	// Records 2..4 were never durable: record 2's frame failed, and the
	// sticky error drops the rest as they arrive.
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3 records framed", w.Count())
	}
	if w.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", w.Dropped())
	}
}

// TestFileFormatsCarryIdenticalStreams writes one stream in both formats and
// checks both readers reproduce it (v2 with positional Seq, which the
// synthetic stream uses anyway).
func TestFileFormatsCarryIdenticalStreams(t *testing.T) {
	recs := synthStream(0, 500)
	v1, v2 := writeV1(recs), encodeV2(t, recs)
	v1Size, v2Size := len(v1), len(v2)
	r1, err := NewReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	got1, err := readAll(r1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := readAll(r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != len(got2) || len(got1) != len(recs) {
		t.Fatalf("lengths differ: v1=%d v2=%d want=%d", len(got1), len(got2), len(recs))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("record %d: v1 %+v, v2 %+v", i, got1[i], got2[i])
		}
	}
	t.Logf("500 records: v1 %d file bytes, v2 %d file bytes", v1Size, v2Size)
}
