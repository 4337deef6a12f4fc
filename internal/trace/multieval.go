package trace

import "repro/internal/isa"

// This file implements single-pass multi-configuration trace evaluation —
// the one replay walk every Replay and ReplayDirs call goes through. The
// Section 5 experiment drivers sweep one recorded trace across many
// predictor/classifier configurations — the FSM baseline plus one
// profile-annotated configuration per accuracy threshold. Replaying the
// trace once per configuration re-reads the whole multi-megabyte buffer T
// times; MultiEval walks the buffer exactly once and fans every chunk out to
// all configurations, turning the sweep from O(configs × replay) into
// O(replay + configs × table-update). Each configuration still observes
// exactly the record sequence its own ReplayDirs/Replay call would have
// produced (the equivalence is asserted by TestMultiEvalMatchesSeparateReplays).

// EvalConfig is one independent evaluation configuration of a MultiEval
// pass: a consumer plus the per-address directive table to patch into each
// record before the consumer sees it. A nil Dirs replays the plain recorded
// stream (the FSM baseline and no-prediction ILP machines); a non-nil Dirs
// reproduces ReplayDirs for that annotation (out-of-range addresses patch to
// DirNone). Configurations share nothing but the immutable trace: each
// consumer owns its prediction tables, counters and statistics.
type EvalConfig struct {
	Dirs     []isa.Directive
	Consumer Consumer
}

// MultiEval replays the recorded stream once, feeding every chunk to each
// configuration. It returns the number of full replay passes saved versus
// evaluating the configurations with one replay each (len(cfgs)-1, never
// negative) — the quantity the vpserve trace_replay_passes_saved metric
// accumulates.
//
// The walk is chunk-tiled: each chunk is loaded and decoded once into a
// Batch and then run through every configuration before the walk advances,
// so configurations 2..N read the decoded columns from cache. Directive
// configurations see a patched Dir column. The unsealed staging tail of a
// Recorder still being recorded is delivered last, as a Batch over the
// staging columns.
//
// Directive patches write per-pass scratch, never the recorded chunks, so
// concurrent MultiEval/Replay calls on one sealed Recorder are safe.
func (rc *Recorder) MultiEval(cfgs ...EvalConfig) int64 {
	if len(cfgs) == 0 {
		return 0
	}
	rc.passes.Add(1)
	ev := evaluator{cfgs: cfgs}
	rc.walkBatches(ev.eval)
	if st := rc.cols; st != nil && st.N > 0 {
		var b Batch
		st.batch(&b, make([]isa.Directive, st.N))
		ev.eval(&b)
	}
	return int64(len(cfgs) - 1)
}

// evaluator runs decoded batches through a pass's configurations.
type evaluator struct {
	cfgs []EvalConfig
	dirs []isa.Directive // patched directive scratch
}

// eval feeds one batch to every configuration in order, swapping in the
// patched directive column for directive configurations.
func (e *evaluator) eval(b *Batch) {
	recorded := b.Dir
	for _, cfg := range e.cfgs {
		b.Dir = recorded
		if cfg.Dirs != nil {
			if cap(e.dirs) < b.N {
				e.dirs = make([]isa.Directive, b.N)
			}
			b.Dir = e.dirs[:b.N]
			patchDirs(b.Dir, b.Addr, cfg.Dirs)
		}
		cfg.Consumer.ConsumeBatch(b)
	}
	b.Dir = recorded
}
