package trace

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// TestMultiEvalMatchesSeparateReplays: each configuration of a MultiEval
// pass must observe exactly the record stream its own Replay/ReplayDirs
// call would have produced.
func TestMultiEvalMatchesSeparateReplays(t *testing.T) {
	const n = recorderChunkSize + 321 // cross a chunk boundary
	rc := NewRecorder()
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		push(rc, &r)
	}
	rc.Seal()

	// Three directive tables of different shapes, plus a plain (nil) config.
	mkDirs := func(size int, f func(i int) isa.Directive) []isa.Directive {
		dirs := make([]isa.Directive, size)
		for i := range dirs {
			dirs[i] = f(i)
		}
		return dirs
	}
	tables := [][]isa.Directive{
		nil,
		mkDirs(1000, func(i int) isa.Directive { return isa.DirStride }),
		mkDirs(500, func(i int) isa.Directive {
			if i%2 == 0 {
				return isa.DirLastValue
			}
			return isa.DirNone
		}),
		mkDirs(10, func(i int) isa.Directive { return isa.DirStride }), // most addrs out of range
	}

	// Separate replays — the baseline semantics.
	want := make([]capture, len(tables))
	for i, dirs := range tables {
		if dirs == nil {
			rc.Replay(&want[i])
		} else {
			rc.ReplayDirs(dirs, &want[i])
		}
	}

	// One MultiEval pass.
	passesBefore := rc.Passes()
	got := make([]capture, len(tables))
	cfgs := make([]EvalConfig, len(tables))
	for i, dirs := range tables {
		cfgs[i] = EvalConfig{Dirs: dirs, Consumer: &got[i]}
	}
	saved := rc.MultiEval(cfgs...)

	if want := int64(len(tables) - 1); saved != want {
		t.Errorf("passes saved = %d, want %d", saved, want)
	}
	if passes := rc.Passes() - passesBefore; passes != 1 {
		t.Errorf("MultiEval took %d passes over the buffer, want 1", passes)
	}
	for i := range tables {
		if !reflect.DeepEqual(got[i].recs, want[i].recs) {
			t.Fatalf("config %d: MultiEval stream differs from separate replay", i)
		}
	}
}

func TestMultiEvalEmpty(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(0)
	push(rc, &r)
	rc.Seal()
	if saved := rc.MultiEval(); saved != 0 {
		t.Errorf("MultiEval() saved = %d, want 0", saved)
	}
	var got capture
	if saved := rc.MultiEval(EvalConfig{Consumer: &got}); saved != 0 {
		t.Errorf("single-config MultiEval saved = %d, want 0", saved)
	}
	if len(got.recs) != 1 {
		t.Errorf("single-config MultiEval delivered %d records, want 1", len(got.recs))
	}
}

func TestPassesCounter(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(0)
	push(rc, &r)
	rc.Seal()
	var a, b capture
	rc.Replay(&a)
	rc.ReplayDirs(nil, &b)
	rc.MultiEval(EvalConfig{Consumer: &a}, EvalConfig{Consumer: &b})
	if got := rc.Passes(); got != 3 {
		t.Errorf("Passes = %d, want 3", got)
	}
}
