package core

// SetFastPath enables (the default) or disables the runtime's fast paths:
// region memoization here and the table-driven Huffman decoder underneath.
// Disabled, every entry re-decodes its region bit by bit through the
// reference decoder; simulated cycles, stats, and memory images are
// identical either way. Tests use the disabled runtime as the reference
// oracle for the fast one.
func (rt *Runtime) SetFastPath(enabled bool) {
	rt.noFastPath = !enabled
	rt.comp.SetSlowDecode(!enabled)
}
