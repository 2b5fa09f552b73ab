package buffersafe

// SafeCount reports how many functions are buffer-safe.
func (r *Result) SafeCount() int {
	n := 0
	for _, s := range r.Safe {
		if s {
			n++
		}
	}
	return n
}
