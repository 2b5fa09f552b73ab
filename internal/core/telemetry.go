package core

import "repro/internal/huffman"

// DecodeStats reports the region coder's decode-path counters (table hits,
// wide peeks, reference tree walks). Host-side telemetry only; the values
// differ with the fast paths on or off while the decoded bits do not.
func (rt *Runtime) DecodeStats() huffman.DecodeStats {
	return rt.comp.DecodeStats()
}
