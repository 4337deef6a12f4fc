package profiler

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// consume feeds r to the collector as a one-record batch.
func (c *StoreCollector) consume(r *trace.Record) {
	s := trace.NewColumnSink(c)
	s.ColumnStage().AppendRecord(r)
	s.Close()
}

func storeRec(addr, memAddr, value int64, op isa.Opcode) *trace.Record {
	return &trace.Record{Addr: addr, Op: op, HasMem: true, MemAddr: memAddr, Value: value}
}

func TestStoreCollectorStrideSequence(t *testing.T) {
	c := NewStoreCollector()
	for i := int64(0); i < 5; i++ {
		c.consume(storeRec(9, 100+i, 10+3*i, isa.OpST))
	}
	s := c.Stat(9)
	if s == nil {
		t.Fatal("no store stat")
	}
	if s.Executions != 5 || s.TotalAttempts() != 4 {
		t.Errorf("execs/attempts = %d/%d", s.Executions, s.TotalAttempts())
	}
	// Same warm-up behaviour as the register profiler: 3 of 4 correct.
	if s.TotalCorrectStride() != 3 || s.TotalNonZeroStrideCorrect() != 3 {
		t.Errorf("stride hits = %d (nz %d)", s.TotalCorrectStride(), s.TotalNonZeroStrideCorrect())
	}
}

func TestStoreCollectorIgnoresNonStores(t *testing.T) {
	c := NewStoreCollector()
	c.consume(&trace.Record{Addr: 1, Op: isa.OpADD, HasDest: true, Value: 5})
	c.consume(&trace.Record{Addr: 2, Op: isa.OpLD, HasDest: true, HasMem: true, MemAddr: 3, Value: 5})
	if c.NumInstructions() != 0 {
		t.Error("non-store records profiled")
	}
}

func TestStoreCollectorFPClass(t *testing.T) {
	c := NewStoreCollector()
	c.consume(storeRec(4, 0, 42, isa.OpFST))
	c.consume(storeRec(4, 0, 42, isa.OpFST))
	s := c.Stat(4)
	if !s.FP {
		t.Error("FP store not classified FP")
	}
	if s.TotalCorrectLast() != 1 {
		t.Errorf("constant store stream: last hits = %d", s.TotalCorrectLast())
	}
}

func TestStoreCollectorImage(t *testing.T) {
	c := NewStoreCollector()
	for i := int64(0); i < 4; i++ {
		c.consume(storeRec(7, 0, 5, isa.OpST))
	}
	im := c.Image("p", "in")
	if len(im.Entries) != 1 || im.Entries[0].Addr != 7 {
		t.Fatalf("image = %+v", im.Entries)
	}
	if im.Entries[0].CorrectStride != 3 {
		t.Errorf("constant store accuracy wrong: %+v", im.Entries[0])
	}
	n := 0
	c.ForEach(func(*InstStat) { n++ })
	if n != 1 {
		t.Errorf("ForEach visited %d", n)
	}
}
