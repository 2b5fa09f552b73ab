// Package cluster is the squashd fleet tier: a router that speaks the
// daemon wire protocol on the front and fans requests out to N backend
// squashd instances. Placement is content-hash placement via rendezvous
// hashing over the serve result-key digest, so each backend's result LRU
// stays hot for its shard and a backend joining or leaving moves only
// ~1/N of the key space. Backends are health-checked (periodic stats
// probes), marked down after K consecutive failures, and failed requests
// reroute to the next-ranked live backend — safe because squash is
// deterministic and idempotent for a given (object, profile, config).
package cluster

// fleetScratch is the fleet size the routed path ranks without
// allocating: rank's score buffer and routeOne's backend buffers are all
// this long. Larger fleets rank correctly but spill to the heap.
const fleetScratch = 16

// rank is rendezvous (highest-random-weight) hashing: every backend scores
// hash(backend, key) and the ranking is by descending score. Each key's
// ranking is stable under membership change everywhere except at the
// backends that joined or left — removing a backend moves exactly its own
// keys (they fall to their second-ranked backend), and adding one steals
// only the ~1/N of keys it now wins — which is what keeps the per-backend
// result LRUs hot across fleet changes.
//
// rank orders live (the backends eligible for new work) into dst by
// descending score, tie-broken by ascending address so the ranking is
// total and deterministic, and returns it. dst is scratch from the
// caller: with capacity for len(live) ≤ fleetScratch backends, ranking
// allocates nothing. len(live) may be zero.
func rank(key [32]byte, live []*Backend, dst []*Backend) []*Backend {
	var buf [fleetScratch]uint64
	scores := buf[:0]
	dst = dst[:0]
	for _, b := range live {
		s := rendezvousScore(b.hashSeed, key)
		dst = append(dst, b)
		scores = append(scores, s)
		// Insertion sort: fleets are small, and it needs no closure.
		i := len(dst) - 1
		for ; i > 0 && (s > scores[i-1] || s == scores[i-1] && b.Addr < dst[i-1].Addr); i-- {
			dst[i], scores[i] = dst[i-1], scores[i-1]
		}
		dst[i], scores[i] = b, s
	}
	return dst
}

// rendezvousScore mixes a backend's seed with the placement key: 64-bit
// FNV-1a over the key bytes, seeded per backend. FNV is not
// cryptographic, but placement only needs a stable, well-mixed total
// order per key.
func rendezvousScore(seed uint64, key [32]byte) uint64 {
	const prime64 = 1099511628211
	h := seed
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// fnv64a hashes a string (backend address → per-backend seed).
func fnv64a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
