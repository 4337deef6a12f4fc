package trace

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

// TestRecorderCloseWithoutSeal abandons a recording mid-stream — the shape
// of a fuel-exhausted or aborted vpserve recording — and requires that no
// goroutine outlives Close.
func TestRecorderCloseWithoutSeal(t *testing.T) {
	start := runtime.NumGoroutine()
	rc := NewRecorder()
	rc.SetMemBudget(1)
	for i := int64(0); i < 3*recorderChunkSize+10; i++ {
		r := synthRecord(i)
		push(rc, &r)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := leakcheck.Settle(start); n > start {
		t.Fatalf("%d goroutines after Close without Seal, %d before", n, start)
	}
}

// panicAfter is a batch consumer that panics on its n-th batch.
type panicAfter struct{ n int }

func (p *panicAfter) ConsumeBatch(*Batch) {
	if p.n--; p.n == 0 {
		panic("consumer failure")
	}
}

// TestLaneReplayConsumerPanic panics a consumer mid-walk while decode lanes
// run ahead of it: the panic must reach the caller, every lane must exit,
// and the recorder must still replay correctly afterwards.
func TestLaneReplayConsumerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 16 * recorderChunkSize
	for _, budget := range []int64{0, 1} {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = synthRecord(int64(i))
			push(rc, &recs[i])
		}
		rc.Seal()
		if decodeLanes(len(rc.chunks)) < 2 {
			t.Fatalf("only %d decode lanes at GOMAXPROCS=4", decodeLanes(len(rc.chunks)))
		}
		start := runtime.NumGoroutine()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("consumer panic did not reach the caller")
				}
			}()
			rc.Replay(&panicAfter{n: 2})
		}()
		if got := leakcheck.Settle(start); got > start {
			t.Fatalf("budget %d: %d goroutines after the panicked walk, %d before", budget, got, start)
		}
		var got capture
		rc.Replay(&got)
		if !reflect.DeepEqual(recs, got.recs) {
			t.Fatalf("budget %d: replay after a panicked walk differs from the oracle stream", budget)
		}
		rc.Close()
	}
}
