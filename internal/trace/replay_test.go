package trace

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// synthRecord builds a deterministic, fully populated record for index i.
func synthRecord(i int64) Record {
	r := Record{
		Addr:    i % 1000,
		Op:      isa.OpADD,
		Dir:     isa.Directive(i % 3),
		HasDest: i%2 == 0,
		DestFP:  i%5 == 0,
		Dest:    isa.Reg(i % 32),
		Value:   i * 0x9E3779B9,
		Phase:   int(i % 2),
		Seq:     i,
		Taken:   i%7 == 0,
		HasMem:  i%3 == 0,
		MemAddr: i * 13,
	}
	if i%2 == 0 {
		r.Reads[0] = RegRead{Valid: true, Reg: isa.Reg(i % 32)}
	}
	if i%4 == 0 {
		r.Reads[1] = RegRead{Valid: true, FP: true, Reg: isa.Reg((i + 5) % 32)}
	}
	return r
}

// capture records every delivered record, materializing each batch record
// by record through Batch.Record — so comparing its stream against the
// oracle checks every column of every batch, field for field.
type capture struct {
	recs    []Record
	batches int
}

// ConsumeBatch implements Consumer.
func (c *capture) ConsumeBatch(b *Batch) {
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

func TestRecorderRoundTrip(t *testing.T) {
	// Cross several chunk boundaries to cover the partial-final-chunk path.
	const n = recorderChunkSize*2 + 17
	rc := NewRecorder()
	var live capture
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		live.recs = append(live.recs, r)
		push(rc, &r)
	}
	if rc.Len() != n {
		t.Fatalf("Len = %d, want %d", rc.Len(), n)
	}
	var replayed capture
	rc.Replay(&replayed)
	if len(replayed.recs) != n {
		t.Fatalf("replayed %d records, want %d", len(replayed.recs), n)
	}
	for i := range live.recs {
		if live.recs[i] != replayed.recs[i] {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v", i, live.recs[i], replayed.recs[i])
		}
	}
}

func TestRecorderMultiConsumerReplay(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 100; i++ {
		r := synthRecord(i)
		push(rc, &r)
	}
	var a, b capture
	rc.Replay(&a, &b)
	if !reflect.DeepEqual(a.recs, b.recs) {
		t.Fatal("multi-consumer replay delivered different streams")
	}
	if len(a.recs) != 100 {
		t.Fatalf("got %d records, want 100", len(a.recs))
	}
}

func TestRecorderExtremeFieldValues(t *testing.T) {
	rc := NewRecorder()
	var live capture
	for i := int64(0); i < 10; i++ {
		r := synthRecord(i)
		if i == 4 {
			r.Addr = 1 << 40
		}
		if i == 7 {
			r.Phase = -3
		}
		live.recs = append(live.recs, r)
		push(rc, &r)
	}
	var replayed capture
	rc.Replay(&replayed)
	if !reflect.DeepEqual(live.recs, replayed.recs) {
		t.Fatalf("replay differs:\nlive   %+v\nreplay %+v", live.recs, replayed.recs)
	}
}

func TestReplayDirsOverride(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 50; i++ {
		r := synthRecord(i) // Addr = i%1000 = i here
		push(rc, &r)
	}
	dirs := make([]isa.Directive, 20) // addresses 20..49 fall beyond the table
	for i := range dirs {
		dirs[i] = isa.DirStride
	}
	var got capture
	rc.ReplayDirs(dirs, &got)
	for i, r := range got.recs {
		want := isa.DirNone
		if r.Addr < 20 {
			want = isa.DirStride
		}
		if r.Dir != want {
			t.Fatalf("record %d (addr %d): dir = %v, want %v", i, r.Addr, r.Dir, want)
		}
		// Everything except Dir must be untouched.
		orig := synthRecord(int64(i))
		r.Dir = orig.Dir
		if r != orig {
			t.Fatalf("record %d mutated beyond Dir:\nwant %+v\ngot  %+v", i, orig, r)
		}
	}
}

func TestDirsOf(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpADD, Dir: isa.DirStride},
		{Op: isa.OpSUB},
		{Op: isa.OpMUL, Dir: isa.DirLastValue},
	}
	want := []isa.Directive{isa.DirStride, isa.DirNone, isa.DirLastValue}
	if got := DirsOf(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("DirsOf = %v, want %v", got, want)
	}
}

func TestRecorderSeal(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(1)
	push(rc, &r)
	if rc.Sealed() {
		t.Fatal("new recorder already sealed")
	}
	rc.Seal()
	rc.Seal() // idempotent
	if !rc.Sealed() {
		t.Fatal("Seal did not stick")
	}
	// Replay still works after sealing.
	var got capture
	rc.Replay(&got)
	if len(got.recs) != 1 || got.recs[0] != r {
		t.Fatalf("replay after seal: got %+v", got.recs)
	}
	// Recording after sealing must panic, not silently mutate the shared
	// buffer.
	defer func() {
		if recover() == nil {
			t.Fatal("ConsumeBatch on a sealed recorder did not panic")
		}
	}()
	rc.ConsumeBatch(&Batch{})
}
