package serve

// Route keys: the content-based placement hash the cluster router shards
// on. The point of exporting them from serve (rather than re-deriving in
// internal/cluster) is that inline requests shard on exactly the request
// identity the backend result cache matches — object, profile and
// canonical config — so every repeat of an (object, profile, config) triple
// lands on the backend whose LRU already holds its image. Named-benchmark
// requests shard on a deterministic (bench, scale, config) digest for the
// same reason: the prepared object is deterministic per spec, so repeats
// are cache hits on their shard. These keys leave the process (placement
// must agree across routers, and recorded streams carry contentKey), so
// unlike the cache's per-process fast key they are SHA-256 digests.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// RouteKey returns the placement key for a single-object request and
// whether the request routes by content at all. OpSquash keys on
// resultKey; OpBench keys on (bench, scale, config).
// Batch frames return ok=false here — they shard per item through
// RouteKeyItem — as do stats, ping, and admin ops, which are not placed
// by content.
func RouteKey(req *Request) ([32]byte, bool) {
	conf := core.DefaultConfig()
	if req.Config != nil {
		conf = *req.Config
	}
	switch req.Op {
	case OpSquash:
		return resultKey(req.Obj, req.Profile, conf), true
	case OpBench:
		return benchRouteKey(req.Bench, req.Scale, conf), true
	}
	return [32]byte{}, false
}

// RouteKeyItem returns the placement key for one batch item, mirroring
// the item's dedup semantics: a named benchmark wins over inline bytes.
func RouteKeyItem(it *BatchItem) [32]byte {
	conf := core.DefaultConfig()
	if it.Config != nil {
		conf = *it.Config
	}
	if it.Bench != "" {
		return benchRouteKey(it.Bench, it.Scale, conf)
	}
	return resultKey(it.Obj, it.Profile, conf)
}

// resultKey digests an inline request's identity: the same length-prefixed
// parts the result cache matches on.
func resultKey(obj, prof []byte, conf core.Config) [32]byte {
	h := sha256.New()
	writeParts(h, obj, prof, canonicalConfig(conf))
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// benchRouteKey digests a named-benchmark request's identity. Scale 0
// normalizes to 1.0 (the server's default) and worker counts are zeroed,
// exactly as for inline requests, so spellings of the same work share a
// shard.
func benchRouteKey(bench string, scale float64, conf core.Config) [32]byte {
	if scale == 0 {
		scale = 1.0
	}
	confJSON := canonicalConfig(conf)
	h := sha256.New()
	h.Write([]byte("bench\x00"))
	h.Write([]byte(bench))
	h.Write([]byte{0})
	var sc [8]byte
	binary.LittleEndian.PutUint64(sc[:], math.Float64bits(scale))
	h.Write(sc[:])
	h.Write(confJSON)
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}
