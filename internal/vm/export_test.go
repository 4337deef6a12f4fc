package vm

import "repro/internal/trace"

// RunStepLoop runs the machine on the reference step loop even when no
// fault plan is armed: the per-record interpreter the fused loop is
// differentially tested against.
func (m *Machine) RunStepLoop() error { return m.run(true) }

// Records is a consumer that keeps every record it is fed, materialized
// from the batches.
type Records []trace.Record

// ConsumeBatch implements trace.Consumer.
func (rs *Records) ConsumeBatch(b *trace.Batch) {
	for i := 0; i < b.N; i++ {
		var r trace.Record
		b.Record(i, &r)
		*rs = append(*rs, r)
	}
}
