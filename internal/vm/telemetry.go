package vm

// Counters is host-side telemetry about which execution paths the
// machine took. Every increment lives on a cold path (cache fills, the
// reference-interpreter dispatch, invalidation hits), so the hot loop
// pays nothing for it, and none of the counts feed back into simulated
// state: cycles, instructions, profiles, and outputs are identical
// whether anyone reads these or not. Unlike Instructions/Cycles the
// split below may differ between fast-path and reference runs
// (DisableFastPath) — that is the point of measuring it.
type Counters struct {
	// Predecodes counts decode-cache fills (µop cache misses), which only
	// the fast path makes. Entries installed by WritePredecoded are not
	// fills: their µops were built ahead of time.
	Predecodes uint64 `json:"predecodes"`
	// SlowDispatches counts fast-path steps that hit a uSlow µop and
	// routed through the reference exec.
	SlowDispatches uint64 `json:"slow_dispatches"`
	// SlowSteps counts steps taken entirely on the reference path
	// (DisableFastPath, unaligned PCs, execution outside text).
	SlowSteps uint64 `json:"slow_steps"`
	// InvalidatedWords counts decode-cache entries dropped by stores
	// and InvalidateRange (self-modifying code, decompressor writes).
	// WritePredecoded replaces entries without dropping them.
	InvalidatedWords uint64 `json:"invalidated_words"`
}

// FastSteps derives how many executed instructions were fully handled
// by the predecoded fast path: everything except reference-path steps
// and uSlow dispatches. Instructions emitted by hooks through ExecInst
// (the interpret-in-place runtime) count as fast here.
func (m *Machine) FastSteps() uint64 {
	slow := m.Telem.SlowSteps + m.Telem.SlowDispatches
	if slow >= m.Instructions {
		return 0
	}
	return m.Instructions - slow
}
