package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// This file implements the columnar chunk codec shared by the in-memory
// Recorder, the spill file, and the VPTRC02 trace-file format. A chunk of
// records is transposed into packed structure-of-arrays columns so each
// field compresses against its own neighbors:
//
//	uvarint  count                     records in the chunk
//	[count]byte   op                   opcode, one byte each
//	[count]byte   flags                bit0 HasDest, bit1 DestFP, bit2 Taken,
//	                                   bit3 HasMem, bits4-5 Dir
//	[count]byte   dest                 destination register
//	[2*count]byte reads               per operand: bit7 Valid, bit6 FP,
//	                                   bits0-5 Reg
//	then five varint columns, each prefixed by a uvarint byte length:
//	  addr   zigzag delta vs the previous record's Addr    (first vs 0)
//	  value  zigzag raw produced value
//	  mem    zigzag delta vs the previous record's MemAddr (first vs 0)
//	  phase  zigzag delta vs the previous record's Phase   (first vs 0)
//	  seq    zigzag delta vs the record's position firstSeq+i
//	         (present only when the chunk is encoded withSeq; the VPTRC02
//	         file format omits it and derives Seq from position)
//
// Instruction addresses advance by small deltas, produced values and memory
// addresses cluster, phases almost never change and sequence numbers are
// positional, so the common record costs ~10 bytes against 56 bytes for the
// in-memory Record struct and 40 bytes for the fixed VPTRC01 file encoding.
// Chunks are self-contained (every delta chain restarts at the chunk
// boundary), which is what lets the Recorder spill and reload them
// independently and lets a file reader resynchronize per frame.
//
// The codec preserves records with canonical ISA field ranges exactly:
// Dir < 4 (isa defines 3 directives), register numbers < 64 (the files have
// packed operands into 6 bits since VPTRC01; the ISA defines 32+32
// registers). The VM can produce nothing else.

// chunkColumns is the number of varint columns when seq is included.
const chunkColumns = 5

// chunkEncoder encodes staged column chunks into the packed columnar form.
// Its scratch is reused across chunks, so a long recording allocates only
// the retained chunk encodings: buf is the output the Recorder assembles
// chunks in before copying out exactly the retained bytes (or spilling with
// no copy at all), zz the zigzag transform of the column being encoded and
// col the scratch an irregular-width column is assembled in.
type chunkEncoder struct {
	buf []byte
	zz  []uint64
	col []byte
}

// zigzag mirrors encoding/binary's varint transform for signed ints (the
// decoders inline its inverse, int64(u>>1) ^ -int64(u&1)).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// encodeCols appends the columnar encoding of the staged columns to dst;
// withSeq selects whether the seq column is emitted (the in-memory Recorder
// keeps it for bit-identical replay of arbitrary streams, the file format
// drops it). The fixed byte columns are already in codec layout (one memcpy
// each); the integer columns run through one delta+zigzag pass that
// OR/AND-accumulates a uniformity prescan, then the speculative
// uniform-width emitters of appendCol — the encode mirror of
// decodeColUniform1/2. Canonical varints everywhere keep the output
// bit-for-bit identical to per-value binary.AppendUvarint.
func (e *chunkEncoder) encodeCols(dst []byte, st *RecordColumns, withSeq bool) []byte {
	n := st.N
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, st.Op[:n]...)
	dst = append(dst, st.Flags[:n]...)
	dst = append(dst, st.Dest[:n]...)
	dst = append(dst, st.Reads[:2*n]...)
	if cap(e.zz) < n {
		e.zz = make([]uint64, n)
	}
	zz := e.zz[:n]
	dst = e.appendDeltaCol(dst, st.Addr[:n], zz)
	dst = e.appendRawCol(dst, st.Value[:n], zz)
	dst = e.appendDeltaCol(dst, st.Mem[:n], zz)
	dst = e.appendDeltaCol(dst, st.Phase[:n], zz)
	if withSeq {
		dst = e.appendSeqCol(dst, st.Seq[:n], zz, st.FirstSeq)
	}
	return dst
}

// appendDeltaCol zigzag-delta-transforms vals into zz (prescanning for
// uniform widths as it goes) and appends the length-prefixed column.
func (e *chunkEncoder) appendDeltaCol(dst []byte, vals []int64, zz []uint64) []byte {
	var orv uint64
	andv := ^uint64(0)
	var prev int64
	for i, v := range vals {
		z := zigzag(v - prev)
		prev = v
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// appendRawCol is appendDeltaCol without the delta transform (the value
// column carries full magnitudes).
func (e *chunkEncoder) appendRawCol(dst []byte, vals []int64, zz []uint64) []byte {
	var orv uint64
	andv := ^uint64(0)
	for i, v := range vals {
		z := zigzag(v)
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// appendSeqCol encodes the seq column: each element's delta against its
// stream position firstSeq+i (all zero for a single-stream recording, which
// the uniform one-byte emitter turns into n bytes of 0x00).
func (e *chunkEncoder) appendSeqCol(dst []byte, seq []int64, zz []uint64, firstSeq int64) []byte {
	var orv uint64
	andv := ^uint64(0)
	for i, s := range seq {
		z := zigzag(s - (firstSeq + int64(i)))
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// growBytes extends dst by n uninitialized bytes, reallocating only when
// capacity runs out (the pooled encode buffer reaches steady state after
// the first chunk).
func growBytes(dst []byte, n int) []byte {
	l := len(dst)
	if cap(dst)-l < n {
		nd := make([]byte, l, 2*(l+n))
		copy(nd, dst)
		dst = nd
	}
	return dst[:l+n]
}

// appendCol appends one length-prefixed varint column from the zigzag
// scratch. The prescan accumulators pick the layout: orv < 0x80 means every
// varint is one byte (a straight-line store loop, no per-element width
// logic); a common set bit at position ≥ 7 (andv) with orv < 0x4000 proves
// every element is in [0x80, 0x4000) — exactly two canonical bytes each.
// Anything else takes the generic binary.AppendUvarint loop via scratch, so
// an irregular column encodes identically, just slower.
func (e *chunkEncoder) appendCol(dst []byte, zz []uint64, orv, andv uint64) []byte {
	n := len(zz)
	switch {
	case orv < 0x80:
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = growBytes(dst, n)
		out := dst[len(dst)-n:]
		for i, z := range zz {
			out[i] = byte(z)
		}
	case orv < 0x4000 && andv >= 0x80:
		dst = binary.AppendUvarint(dst, uint64(2*n))
		dst = growBytes(dst, 2*n)
		out := dst[len(dst)-2*n:]
		for i, z := range zz {
			out[2*i] = byte(z) | 0x80
			out[2*i+1] = byte(z >> 7)
		}
	default:
		col := e.col[:0]
		for _, z := range zz {
			col = binary.AppendUvarint(col, z)
		}
		e.col = col
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		dst = append(dst, col...)
	}
	return dst
}

// chunkDecoder decodes one encoded chunk into a Batch. Decoding is
// strictly bounds-checked: any truncation, overlong varint, or trailing
// garbage is an error, never a panic or an out-of-range read — the same
// data path decodes trusted in-memory chunks and untrusted file frames.
type chunkDecoder struct {
	n                            int
	ops, flags, dest, reads      []byte
	addr, value, mem, phase, seq []byte
	firstSeq                     int64
	withSeq                      bool
}

// init parses the chunk header and column bounds of data. firstSeq is the
// stream position of the chunk's first record (the basis Seq derives from).
func (d *chunkDecoder) init(data []byte, firstSeq int64, withSeq bool) error {
	n64, hdr := binary.Uvarint(data)
	if hdr <= 0 {
		return fmt.Errorf("trace: chunk header: bad record count")
	}
	// Each record costs at least 5 fixed column bytes; bounding n by the
	// payload size rejects absurd counts before any allocation.
	if n64 > uint64(len(data))/5 {
		return fmt.Errorf("trace: chunk header: record count %d exceeds payload", n64)
	}
	n := int(n64)
	off := hdr
	fixed := func(size int) ([]byte, error) {
		if size < 0 || len(data)-off < size {
			return nil, fmt.Errorf("trace: chunk truncated in fixed columns")
		}
		col := data[off : off+size]
		off += size
		return col, nil
	}
	var err error
	if d.ops, err = fixed(n); err != nil {
		return err
	}
	if d.flags, err = fixed(n); err != nil {
		return err
	}
	if d.dest, err = fixed(n); err != nil {
		return err
	}
	if d.reads, err = fixed(2 * n); err != nil {
		return err
	}
	ncols := chunkColumns
	if !withSeq {
		ncols--
	}
	varCols := [chunkColumns][]byte{}
	for c := 0; c < ncols; c++ {
		l64, ln := binary.Uvarint(data[off:])
		if ln <= 0 {
			return fmt.Errorf("trace: chunk truncated in column %d length", c)
		}
		off += ln
		if l64 > uint64(len(data)-off) {
			return fmt.Errorf("trace: chunk truncated in column %d payload", c)
		}
		varCols[c] = data[off : off+int(l64)]
		off += int(l64)
	}
	if off != len(data) {
		return fmt.Errorf("trace: %d trailing bytes after chunk payload", len(data)-off)
	}
	d.n = n
	d.addr, d.value, d.mem, d.phase, d.seq =
		varCols[0], varCols[1], varCols[2], varCols[3], varCols[4]
	d.firstSeq = firstSeq
	d.withSeq = withSeq
	return nil
}

// decodeVarintCol decodes one zigzag varint column into out, accumulating
// deltas when delta is set. This is the batch replay path's hot loop.
//
// Varint decode is normally a serial chain — each element's offset depends
// on the previous element's width — which caps a branchy byte-at-a-time
// loop at several cycles per element no matter how it is unrolled. But the
// recorded columns are very regular: addr/phase/seq deltas are almost
// always single-byte varints and mem deltas two-byte, so the column length
// alone often reveals a uniform layout where element i lives at a fixed
// offset and the chain disappears. The uniform decoders validate as they
// go (a stray continuation bit falls back to the generic loop), so a
// malformed or merely irregular column decodes identically, just slower.
func decodeVarintCol(col []byte, out []int64, delta bool) error {
	switch {
	case len(col) == len(out):
		if decodeColUniform1(col, out, delta) {
			return nil
		}
	case len(col) == 2*len(out):
		if decodeColUniform2(col, out, delta) {
			return nil
		}
	}
	return decodeColGeneric(col, out, delta)
}

// decodeColUniform1 decodes a column of len(out) bytes assuming every
// varint is exactly one byte. n varints cannot fit n bytes any other way,
// but a corrupt column could still carry continuation bits, so validity is
// OR-accumulated and checked once; false means fall back to the generic
// decoder.
func decodeColUniform1(col []byte, out []int64, delta bool) bool {
	var bad byte
	if delta {
		var acc int64
		for i, c := range col {
			bad |= c
			acc += int64(c>>1) ^ -int64(c&1)
			out[i] = acc
		}
	} else {
		for i, c := range col {
			bad |= c
			out[i] = int64(c>>1) ^ -int64(c&1)
		}
	}
	return bad < 0x80
}

// decodeColUniform2 speculatively decodes a column of 2*len(out) bytes as
// uniform two-byte varints (continuation byte then terminal byte). A
// one-byte/three-byte mix can also sum to 2n, so the layout is validated
// element-wise and OR-accumulated; false means out holds garbage and the
// caller must redo the column generically.
func decodeColUniform2(col []byte, out []int64, delta bool) bool {
	var bad byte
	if delta {
		var acc int64
		for i := range out {
			b0, b1 := col[2*i], col[2*i+1]
			bad |= ^b0 & 0x80
			bad |= b1 & 0x80
			u := uint64(b0&0x7f) | uint64(b1)<<7
			acc += int64(u>>1) ^ -int64(u&1)
			out[i] = acc
		}
	} else {
		for i := range out {
			b0, b1 := col[2*i], col[2*i+1]
			bad |= ^b0 & 0x80
			bad |= b1 & 0x80
			u := uint64(b0&0x7f) | uint64(b1)<<7
			out[i] = int64(u>>1) ^ -int64(u&1)
		}
	}
	return bad == 0
}

// decodeColGeneric is the irregular-width decoder (in practice the value
// column, whose magnitudes vary record to record, and mem columns that are
// two bytes per delta with occasional exceptions). While at least ten bytes
// remain (the longest possible varint) it decodes
// from a reslice whose first four indices are provably in bounds, so
// one-to-four-byte widths run without bounds checks or calls into
// binary.Uvarint; the bounds-checked tail loop handles the last few bytes
// of the column.
func decodeColGeneric(col []byte, out []int64, delta bool) error {
	var ci int
	var acc int64
	for i := range out {
		var u uint64
		if rest := col[ci:]; len(rest) >= 10 {
			x := uint64(binary.LittleEndian.Uint32(rest))
			if x&0x80 == 0 {
				u = x & 0x7f
				ci++
			} else if x&0x8000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7
				ci += 2
			} else if x&0x800000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14
				ci += 3
			} else if x&0x80000000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14 | x>>24&0x7f<<21
				ci += 4
			} else {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14 | x>>24&0x7f<<21
				// Continuation bytes land at rest[4..9]; the shift guard
				// trips before a well-formed check would read rest[10].
				k, shift := 4, 28
				for {
					c := rest[k]
					k++
					u |= uint64(c&0x7f) << shift
					if c < 0x80 {
						break
					}
					shift += 7
					if shift >= 70 {
						return fmt.Errorf("trace: chunk varint column overflow at byte %d", ci+k)
					}
				}
				ci += k
			}
		} else {
			// Bounds-checked tail: the last few varints of the column.
			shift := 0
			for {
				if ci >= len(col) {
					return fmt.Errorf("trace: chunk varint column truncated at byte %d", ci)
				}
				c := col[ci]
				ci++
				u |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
				shift += 7
				if shift >= 70 {
					return fmt.Errorf("trace: chunk varint column overflow at byte %d", ci)
				}
			}
		}
		v := int64(u>>1) ^ -int64(u&1)
		if delta {
			acc += v
			v = acc
		}
		out[i] = v
	}
	return nil
}

// decodeBatch decodes the initialized chunk into b as columns rather than
// records: the fixed byte columns are exposed as direct sub-slices of the
// encoded data (zero decode cost — this is where the batch path's win over
// record materialization comes from), the varint columns are decoded into
// batch-owned int64 slices, and the packed directive bits are widened into
// their own column so consumers and directive patches index it directly.
func (d *chunkDecoder) decodeBatch(b *Batch) error {
	b.grow(d.n)
	b.N = d.n
	b.FirstSeq = d.firstSeq
	b.Op, b.Flags, b.Dest, b.Reads = d.ops, d.flags, d.dest, d.reads
	dir := b.Dir
	for i, f := range d.flags {
		dir[i] = isa.Directive(f >> 4)
	}
	if err := decodeVarintCol(d.addr, b.Addr, true); err != nil {
		return err
	}
	if err := decodeVarintCol(d.value, b.Value, false); err != nil {
		return err
	}
	if err := decodeVarintCol(d.mem, b.MemAddr, true); err != nil {
		return err
	}
	if err := decodeVarintCol(d.phase, b.Phase, true); err != nil {
		return err
	}
	seq := b.Seq
	switch {
	case !d.withSeq:
		for i := range seq {
			seq[i] = d.firstSeq + int64(i)
		}
	case len(d.seq) == len(seq):
		// The overwhelmingly common case: every seq delta is one byte
		// (a single-stream recording has them all zero), decoded fused
		// with the positional add rather than in two passes.
		var bad byte
		for i, c := range d.seq {
			bad |= c
			seq[i] = (int64(c>>1) ^ -int64(c&1)) + d.firstSeq + int64(i)
		}
		if bad >= 0x80 {
			return d.decodeSeqSlow(seq)
		}
	default:
		return d.decodeSeqSlow(seq)
	}
	return nil
}

// decodeSeqSlow decodes an irregular seq column (a re-recorded or
// hand-built stream whose sequence numbers stray far from position).
func (d *chunkDecoder) decodeSeqSlow(seq []int64) error {
	if err := decodeVarintCol(d.seq, seq, false); err != nil {
		return err
	}
	for i := range seq {
		seq[i] += d.firstSeq + int64(i)
	}
	return nil
}

// mustDecodeBatch decodes a chunk the Recorder encoded itself into b;
// failure would mean memory or spill-file corruption.
func mustDecodeBatch(b *Batch, data []byte, firstSeq int64) {
	var d chunkDecoder
	err := d.init(data, firstSeq, true)
	if err == nil {
		err = d.decodeBatch(b)
	}
	if err != nil {
		panic("trace: corrupt recorded chunk: " + err.Error())
	}
}

// checkOpDir rejects opcodes and directives outside the ISA: the strict
// validation applied to untrusted file frames (in-memory chunks were
// encoded from VM output and skip it).
func (b *Batch) checkOpDir() error {
	for i := 0; i < b.N; i++ {
		if !isa.Opcode(b.Op[i]).Valid() {
			return fmt.Errorf("trace: invalid opcode %d in record %d", b.Op[i], b.Seq[i])
		}
		if !b.Dir[i].Valid() {
			return fmt.Errorf("trace: invalid directive %d in record %d", b.Dir[i], b.Seq[i])
		}
	}
	return nil
}
