package profiler

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// feed pushes a value sequence for one static instruction through a
// collector.
// consume feeds r to the collector as a one-record batch.
func (c *Collector) consume(r *trace.Record) {
	s := trace.NewColumnSink(c)
	s.ColumnStage().AppendRecord(r)
	s.Close()
}

func feed(c *Collector, addr int64, op isa.Opcode, phase int, values ...int64) {
	for _, v := range values {
		c.consume(&trace.Record{
			Addr: addr, Op: op, HasDest: true, Dest: 1, Value: v, Phase: phase,
		})
	}
}

func TestCollectorStrideSequence(t *testing.T) {
	c := NewCollector()
	feed(c, 10, isa.OpADDI, 0, 5, 8, 11, 14, 17) // stride 3
	s := c.Stat(10)
	if s == nil {
		t.Fatal("no stat collected")
	}
	if s.Executions != 5 {
		t.Errorf("executions = %d", s.Executions)
	}
	if got := s.TotalAttempts(); got != 4 {
		t.Errorf("attempts = %d, want 4 (first execution unpredicted)", got)
	}
	// Stride predictor: after seeing 5, stride unknown (0) → predicts 5
	// (wrong, actual 8). Then stride 3 → 11 ✓, 14 ✓, 17 ✓.
	if got := s.TotalCorrectStride(); got != 3 {
		t.Errorf("correct stride = %d, want 3", got)
	}
	if got := s.TotalNonZeroStrideCorrect(); got != 3 {
		t.Errorf("non-zero stride correct = %d, want 3", got)
	}
	// Last-value is always wrong on a non-zero stride.
	if got := s.TotalCorrectLast(); got != 0 {
		t.Errorf("correct last = %d, want 0", got)
	}
	if s.Accuracy() != 75 {
		t.Errorf("accuracy = %g, want 75", s.Accuracy())
	}
	if s.StrideEfficiency() != 100 {
		t.Errorf("stride efficiency = %g, want 100", s.StrideEfficiency())
	}
}

func TestCollectorConstantSequence(t *testing.T) {
	c := NewCollector()
	feed(c, 20, isa.OpLD, 0, 9, 9, 9, 9)
	s := c.Stat(20)
	if s.TotalCorrectStride() != 3 || s.TotalCorrectLast() != 3 {
		t.Errorf("constant stream: stride %d last %d, want 3/3",
			s.TotalCorrectStride(), s.TotalCorrectLast())
	}
	if s.TotalNonZeroStrideCorrect() != 0 {
		t.Errorf("constant stream has non-zero strides")
	}
	if s.StrideEfficiency() != 0 {
		t.Errorf("stride efficiency = %g, want 0", s.StrideEfficiency())
	}
	if !s.Load {
		t.Error("load class not recorded")
	}
}

func TestCollectorPhaseSplit(t *testing.T) {
	c := NewCollector()
	feed(c, 30, isa.OpFADD, 0, 1, 1)    // init phase: 1 attempt, correct
	feed(c, 30, isa.OpFADD, 1, 2, 3, 4) // comp phase: 3 attempts
	s := c.Stat(30)
	if s.Attempts[0] != 1 || s.CorrectStride[0] != 1 {
		t.Errorf("phase 0: %d/%d", s.CorrectStride[0], s.Attempts[0])
	}
	if s.Attempts[1] != 3 {
		t.Errorf("phase 1 attempts = %d", s.Attempts[1])
	}
	if !s.FP {
		t.Error("FP class not recorded")
	}
	// Phases beyond NumPhases fold into the last slot; negatives clamp.
	feed(c, 30, isa.OpFADD, 99, 5)
	feed(c, 30, isa.OpFADD, -1, 6)
	if s.TotalAttempts() != 6 {
		t.Errorf("total attempts after clamped phases = %d", s.TotalAttempts())
	}
}

func TestCollectorIgnoresNonValueRecords(t *testing.T) {
	c := NewCollector()
	c.consume(&trace.Record{Addr: 1, Op: isa.OpBEQ})
	c.consume(&trace.Record{Addr: 2, Op: isa.OpST})
	if c.NumInstructions() != 0 {
		t.Error("non-value-producing records collected")
	}
}

func TestImageExtractSortedAndLookup(t *testing.T) {
	c := NewCollector()
	feed(c, 50, isa.OpADD, 0, 1, 2, 3)
	feed(c, 7, isa.OpADD, 0, 4, 4)
	im := c.Image("prog", "seed=1")
	if len(im.Entries) != 2 || im.Entries[0].Addr != 7 || im.Entries[1].Addr != 50 {
		t.Fatalf("entries not sorted: %+v", im.Entries)
	}
	e, ok := im.Lookup(50)
	if !ok || e.Attempts != 2 {
		t.Errorf("Lookup(50) = %+v, %v", e, ok)
	}
	if _, ok := im.Lookup(8); ok {
		t.Error("Lookup(8) succeeded")
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCollector()
	feed(c, 3, isa.OpADDI, 0, 10, 20, 30, 40)
	feed(c, 9, isa.OpLD, 1, 5, 5, 7)
	im := c.Image("myprog", "seed=42,scale=1")

	var b strings.Builder
	if err := im.Encode(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, b.String())
	}
	if got.Program != im.Program || got.Input != im.Input {
		t.Errorf("header: %q/%q", got.Program, got.Input)
	}
	if len(got.Entries) != len(im.Entries) {
		t.Fatalf("entry count %d vs %d", len(got.Entries), len(im.Entries))
	}
	for i := range im.Entries {
		if got.Entries[i] != im.Entries[i] {
			t.Errorf("entry %d: %+v vs %+v", i, got.Entries[i], im.Entries[i])
		}
	}
}

func TestDecodeRejectsCorruptImages(t *testing.T) {
	cases := map[string]string{
		"no header":        "program x\n1 2 3 4 5 6\n",
		"bad field count":  "# vpprof image v1\nprogram x\n1 2 3\n",
		"non-numeric":      "# vpprof image v1\n1 2 3 4 five 6\n",
		"negative count":   "# vpprof image v1\n1 -2 3 4 5 6\n",
		"correct>attempts": "# vpprof image v1\n1 10 4 5 0 0\n",
		"nzs>correct":      "# vpprof image v1\n1 10 9 2 3 0\n",
		"attempts>execs":   "# vpprof image v1\n1 2 5 1 0 0\n",
		"duplicate addr":   "# vpprof image v1\n1 10 9 2 1 0\n1 10 9 2 1 0\n",
	}
	for name, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestMerge(t *testing.T) {
	c1 := NewCollector()
	feed(c1, 5, isa.OpADD, 0, 1, 2, 3)
	im1 := c1.Image("p", "a")
	c2 := NewCollector()
	feed(c2, 5, isa.OpADD, 0, 10, 20, 30, 40)
	feed(c2, 6, isa.OpADD, 0, 1, 1)
	im2 := c2.Image("p", "b")

	m, err := Merge(im1, im2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 2 {
		t.Fatalf("merged entries = %d", len(m.Entries))
	}
	e, _ := m.Lookup(5)
	if e.Executions != 7 || e.Attempts != 5 {
		t.Errorf("merged entry = %+v", e)
	}
	if m.Input != "a+b" {
		t.Errorf("merged input = %q", m.Input)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	a := &Image{Program: "x"}
	b := &Image{Program: "y"}
	if _, err := Merge(a, b); err == nil {
		t.Error("cross-program merge accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := NewCollector()
	feed(c, 1, isa.OpADD, 0, 1, 2, 3)
	im := c.Image("p", "in")
	path := t.TempDir() + "/img.prof"
	if err := im.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "p" || len(got.Entries) != 1 {
		t.Errorf("loaded image = %+v", got)
	}
}

func TestForEachVisitsAll(t *testing.T) {
	c := NewCollector()
	feed(c, 1, isa.OpADD, 0, 1)
	feed(c, 2, isa.OpADD, 0, 1)
	n := 0
	c.ForEach(func(*InstStat) { n++ })
	if n != 2 {
		t.Errorf("ForEach visited %d", n)
	}
}
