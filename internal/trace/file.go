package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/isa"
)

// Binary trace file formats. Traces let the command-line tools decouple
// execution from analysis, the way SHADE trace files decoupled tracing from
// the paper's analyzers.
//
// VPTRC01 (legacy, read-only): an 8-byte magic followed by fixed 40-byte
// records. Readers still accept it as outside input; nothing writes it.
//
// VPTRC02 (written): the 8-byte magic followed by self-delimiting frames,
// each one columnar-compressed chunk of up to fileChunkSize records:
//
//	u32  payload length (little-endian)
//	u32  CRC-32C (Castagnoli) of the payload
//	payload: the codec.go chunk encoding, WITHOUT the seq column — the
//	         on-disk Seq field is redundant (records are written in stream
//	         order) and is derived from record position on read.
//
// A clean EOF falls exactly on a frame boundary; anything else is reported
// as truncation. Readers accept both versions (sniffed from the magic).

var (
	fileMagicV1 = [8]byte{'V', 'P', 'T', 'R', 'C', '0', '1', '\n'}
	fileMagicV2 = [8]byte{'V', 'P', 'T', 'R', 'C', '0', '2', '\n'}
)

// Format names the on-disk trace encoding a Reader found.
type Format int

const (
	// FormatV2 is the framed columnar-compressed encoding.
	FormatV2 Format = iota
	// FormatV1 is the legacy fixed-40-byte-record encoding.
	FormatV1
)

// String names the format as it appears in the file magic.
func (f Format) String() string {
	if f == FormatV1 {
		return "VPTRC01"
	}
	return "VPTRC02"
}

// ErrTruncated reports a trace file that ends mid-record or mid-frame.
var ErrTruncated = errors.New("truncated trace file")

// ErrCorrupt reports structurally invalid trace-file contents (bad frame
// bounds, CRC mismatch, malformed chunk payload).
var ErrCorrupt = errors.New("corrupt trace file")

// v1RecordSize is the on-disk size of one VPTRC01 record.
//
//	addr int64, seq int64, value int64, memAddr int64,
//	op uint8, dir uint8, flags uint8, dest uint8,
//	phase uint16, reads [2]uint8 (bit7 valid, bit6 fp, bits0-5 reg)
const v1RecordSize = 8 + 8 + 8 + 8 + 4 + 2 + 2

// fileChunkSize is the records-per-frame granularity of VPTRC02 writers:
// small enough that a reader buffers at most ~230 KiB of decoded records,
// large enough that the delta columns compress well.
const fileChunkSize = 4096

// maxFramePayload bounds a frame a reader will accept, rejecting absurd
// lengths from corrupt headers before allocating.
const maxFramePayload = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer streams records to an io.Writer as VPTRC02 frames. Write errors
// are sticky: the first failure is captured with the index of the first
// record of the failing frame and the byte offset where the stream stopped
// being durable, every record not durably written is counted as dropped,
// and Flush/Close surface the annotated error instead of silently losing
// the tail of the trace.
//
// The frame being filled is staged as columns, not records: Writer
// implements ColumnAppender (the VM's fused loop writes destructured fields
// straight into the frame stage) and Consumer (replaying a sealed Recorder
// to a file copies decoded columns frame by frame) — both producers reach
// the column encoder and produce byte-identical files.
type Writer struct {
	out     io.Writer
	cols    *RecordColumns // the frame being filled
	enc     chunkEncoder
	buf     []byte // encoded bytes awaiting write
	bufRec  int64  // index of the first record encoded in buf
	n       int64  // records accepted
	off     int64  // bytes durably accepted by out
	dropped int64  // records not durably written
	err     error
}

// NewWriter writes the VPTRC02 header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(fileMagicV2[:]); err != nil {
		return nil, fmt.Errorf("trace: write magic: %w", err)
	}
	return &Writer{out: w, off: int64(len(fileMagicV2)), cols: newRecordColumns(fileChunkSize)}, nil
}

// flushBuf writes the pending frame. On failure it records the first error
// with the byte offset where durability ended and the index of the first
// record affected, and counts every accepted-but-unwritten record as
// dropped.
func (tw *Writer) flushBuf() {
	if len(tw.buf) == 0 || tw.err != nil {
		return
	}
	nw, err := tw.out.Write(tw.buf)
	if nw > 0 {
		tw.off += int64(nw)
	}
	if err != nil {
		tw.err = fmt.Errorf("trace: write record %d (byte offset %d): %w", tw.bufRec, tw.off, err)
		tw.dropped = tw.n - tw.bufRec
	}
	tw.buf = tw.buf[:0]
	tw.bufRec = tw.n
}

// ConsumeBatch implements Consumer: batches are copied into the frame stage
// column-wise (a directive column patched by ReplayDirs lands in the file).
func (tw *Writer) ConsumeBatch(b *Batch) {
	for k := 0; k < b.N; {
		st := tw.cols
		m := min(b.N-k, st.Cap()-st.N)
		st.appendBatch(b, k, m)
		k += m
		if st.N == st.Cap() {
			tw.flushFrame()
		}
	}
}

// ColumnStage implements ColumnAppender: the VM's fused loop may write
// destructured record fields straight into the frame stage.
func (tw *Writer) ColumnStage() *RecordColumns { return tw.cols }

// FlushColumns seals the filled frame stage.
func (tw *Writer) FlushColumns() *RecordColumns {
	tw.flushFrame()
	return tw.cols
}

// FlushTail implements ColumnAppender; the partial frame stays staged until
// Flush or Close.
func (tw *Writer) FlushTail() {}

// flushFrame encodes and writes the staged columns as one VPTRC02 frame.
// Records are counted as accepted here, at frame granularity, because fused
// producers write the stage directly.
func (tw *Writer) flushFrame() {
	st := tw.cols
	if st.N == 0 {
		return
	}
	if tw.err != nil {
		tw.dropped += int64(st.N) // after a write error the stage only drains
		st.N = 0
		return
	}
	tw.n += int64(st.N)
	tw.buf = append(tw.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	tw.buf = tw.enc.encodeCols(tw.buf, st, false)
	payload := tw.buf[8:]
	binary.LittleEndian.PutUint32(tw.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tw.buf[4:], crc32.Checksum(payload, castagnoli))
	st.N = 0
	tw.flushBuf()
}

// Flush writes any partially filled frame. It returns the first
// write error, annotated with the failing record index and byte offset.
func (tw *Writer) Flush() error {
	tw.flushFrame()
	tw.flushBuf()
	return tw.err
}

// Close flushes buffered records. It returns the first error encountered
// while writing, if any, annotated with where it struck and how many
// records were dropped after it.
func (tw *Writer) Close() error {
	if err := tw.Flush(); err != nil {
		if tw.dropped > 0 {
			return fmt.Errorf("%w (%d records dropped after the first error)", err, tw.dropped)
		}
		return err
	}
	return nil
}

// Count returns the number of records accepted so far (records dropped
// after a write error are not counted).
func (tw *Writer) Count() int64 { return tw.n }

// Dropped returns how many records were discarded after the first write
// error.
func (tw *Writer) Dropped() int64 { return tw.dropped }

// FileWriter is a Writer bound to a file, published atomically: records
// stream into a temporary file in the destination directory, and Close
// fsyncs it, renames it over the final path, and fsyncs the directory. A
// crash at any point leaves either the complete previous file or the
// complete new one — never a torn trace that a crash-recovery journal (or a
// later analysis pass) could reference by name and then fail to parse.
type FileWriter struct {
	*Writer
	f      *os.File
	path   string
	closed bool
}

// CreateFile opens an atomic trace writer targeting path. The final file
// appears only on a successful Close; until then (and after any failure)
// the destination is untouched.
func CreateFile(path string) (*FileWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	// CreateTemp opens 0600; widen to the usual 0644 so the published
	// trace is readable by other users, as an os.Create'd one would be.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	tw, err := NewWriter(f)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &FileWriter{Writer: tw, f: f, path: path}, nil
}

// Close flushes buffered records, makes the temp file durable, and renames
// it into place. Any failure removes the temp file and reports the error;
// the destination path is never left referencing partial data. Idempotent.
func (fw *FileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	fail := func(err error) error {
		fw.f.Close()
		os.Remove(fw.f.Name())
		return err
	}
	if err := fw.Writer.Close(); err != nil {
		return fail(err)
	}
	if err := fw.f.Sync(); err != nil {
		return fail(fmt.Errorf("trace: sync %s: %w", fw.f.Name(), err))
	}
	if err := fw.f.Close(); err != nil {
		os.Remove(fw.f.Name())
		return fmt.Errorf("trace: close %s: %w", fw.f.Name(), err)
	}
	if err := os.Rename(fw.f.Name(), fw.path); err != nil {
		os.Remove(fw.f.Name())
		return fmt.Errorf("trace: publish %s: %w", fw.path, err)
	}
	return syncDir(filepath.Dir(fw.path))
}

// Abort discards the temp file without touching the destination.
func (fw *FileWriter) Abort() {
	if fw.closed {
		return
	}
	fw.closed = true
	fw.f.Close()
	os.Remove(fw.f.Name())
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trace: sync dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: sync dir %s: %w", dir, err)
	}
	return nil
}

// Reader streams a trace file as batches, accepting both trace formats.
type Reader struct {
	r      *bufio.Reader
	format Format
	batch  Batch
	seq    int64 // records read so far (the derived Seq basis)

	payload []byte         // v2 frame payload scratch
	v1      *RecordColumns // v1 records staged for the batch
	v1dir   []isa.Directive
	v1err   error // error met after the records of the last v1 batch
}

// NewReader validates the trace header and returns a streaming reader for
// whichever format the magic declares.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	switch got {
	case fileMagicV1:
		return &Reader{r: br, format: FormatV1}, nil
	case fileMagicV2:
		return &Reader{r: br, format: FormatV2}, nil
	}
	return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", got)
}

// Format reports the file format the header declared.
func (tr *Reader) Format() Format { return tr.format }

// NextBatch reads the next batch of records: one frame of a VPTRC02 file,
// up to fileChunkSize records of a VPTRC01 one. The batch is read-only and
// valid until the next call. NextBatch returns io.EOF at a clean end of
// trace and an error wrapping ErrTruncated or ErrCorrupt (or the v1
// diagnostics) for anything malformed; records that precede a malformed one
// are delivered first.
func (tr *Reader) NextBatch() (*Batch, error) {
	var err error
	if tr.format == FormatV1 {
		err = tr.readV1()
	} else {
		err = tr.readFrame()
	}
	if err != nil {
		return nil, err
	}
	tr.seq += int64(tr.batch.N)
	return &tr.batch, nil
}

// readFrame reads, decodes and validates the next VPTRC02 frame into
// tr.batch.
func (tr *Reader) readFrame() error {
	var hdr [8]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF // clean end: EOF exactly on a frame boundary
		}
		return fmt.Errorf("trace: frame header: %w: %w", ErrTruncated, err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if size == 0 || size > maxFramePayload {
		return fmt.Errorf("trace: %w: frame payload length %d", ErrCorrupt, size)
	}
	if cap(tr.payload) < int(size) {
		tr.payload = make([]byte, size)
	}
	tr.payload = tr.payload[:size]
	if _, err := io.ReadFull(tr.r, tr.payload); err != nil {
		if errors.Is(err, io.EOF) {
			// A bare EOF here still means a truncated frame — the header
			// promised a payload; don't let io.EOF escape as a clean end.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: frame payload: %w: %w", ErrTruncated, err)
	}
	if got := crc32.Checksum(tr.payload, castagnoli); got != crc {
		return fmt.Errorf("trace: %w: frame CRC mismatch (stored %#x, computed %#x)", ErrCorrupt, crc, got)
	}
	var d chunkDecoder
	err := d.init(tr.payload, tr.seq, false)
	if err == nil {
		err = d.decodeBatch(&tr.batch)
	}
	if err == nil {
		err = tr.batch.checkOpDir()
	}
	if err != nil {
		tr.batch.N = 0
		return fmt.Errorf("trace: %w: %w", ErrCorrupt, err)
	}
	return nil
}

// readV1 stages up to fileChunkSize VPTRC01 records into tr.batch. An error
// after at least one good record is held back for the next call, so the
// records before it are delivered first.
func (tr *Reader) readV1() error {
	if err := tr.v1err; err != nil {
		return err
	}
	if tr.v1 == nil {
		tr.v1 = newRecordColumns(fileChunkSize)
		tr.v1dir = make([]isa.Directive, fileChunkSize)
	}
	st := tr.v1
	st.N, st.FirstSeq = 0, tr.seq
	for st.N < st.Cap() {
		if err := tr.readV1Record(st); err != nil {
			if st.N == 0 {
				return err
			}
			tr.v1err = err
			break
		}
	}
	st.batch(&tr.batch, tr.v1dir)
	return nil
}

// readV1Record decodes one fixed-size VPTRC01 record into the stage.
func (tr *Reader) readV1Record(st *RecordColumns) error {
	var buf [v1RecordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("trace: truncated record: %w", err)
	}
	seq := int64(binary.LittleEndian.Uint64(buf[8:]))
	if op := isa.Opcode(buf[32]); !op.Valid() {
		return fmt.Errorf("trace: invalid opcode %d in record %d", buf[32], seq)
	}
	if dir := isa.Directive(buf[33]); !dir.Valid() {
		return fmt.Errorf("trace: invalid directive %d in record %d", buf[33], seq)
	}
	i := st.N
	st.Addr[i] = int64(binary.LittleEndian.Uint64(buf[0:]))
	st.Seq[i] = seq
	st.Value[i] = int64(binary.LittleEndian.Uint64(buf[16:]))
	st.Mem[i] = int64(binary.LittleEndian.Uint64(buf[24:]))
	st.Op[i] = buf[32]
	st.Flags[i] = buf[34]&0x0f | buf[33]<<4
	st.Dest[i] = buf[35]
	st.Phase[i] = int64(binary.LittleEndian.Uint16(buf[36:]))
	st.Reads[2*i] = buf[38]
	st.Reads[2*i+1] = buf[39]
	st.N = i + 1
	return nil
}
