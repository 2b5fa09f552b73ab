package serve

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/maphash"
	"sync"

	"repro/internal/core"
)

// resultCache is the daemon's warm state: finished squash results — the
// linked image (whose metadata carries the trained per-config codebooks)
// plus statistics — keyed by the exact request bytes they were computed
// from. Squash is deterministic for a given (object, profile, config), so
// serving a cached image is byte-identical to recomputing it; the cache only
// ever changes latency.
//
// The index is a fast per-process key (maphash) over the request parts, and
// a hit additionally requires byte equality on every part, so a key
// collision is a miss, never another request's image. Each entry retains
// its request's object and profile bytes for that comparison; the cache
// interns them, so entries for one object under several configs share one
// reference-counted copy.
//
// Bounded LRU so a daemon fed a stream of distinct programs stays flat in
// memory: by entry count always, and additionally by total resident bytes
// (images plus interned request bytes, each blob counted once) when a byte
// budget is set.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64      // 0 = no byte budget
	bytes    int64      // resident images plus interned blobs
	order    *list.List // front = most recently used
	entries  map[uint64]*list.Element
	blobs    map[uint64]*blob // interned request bytes by content hash

	// keyMask is ANDed into every fast key; tests zero it to force
	// collisions.
	keyMask uint64
}

type cacheEntry struct {
	key       uint64
	obj, prof *blob
	conf      []byte // canonical config JSON
	image     []byte
	stats     core.Stats
	foot      core.Footprint
}

// blob is one interned request payload (an object or a profile), shared by
// every resident entry whose request carried the same bytes and freed with
// the last of them.
type blob struct {
	hash uint64
	data []byte
	refs int
}

// requestID is a squash request's cache identity: the exact bytes the
// output depends on, plus the fast key that indexes them. obj and prof may
// alias a request's frame buffer; the cache copies them before retaining.
type requestID struct {
	key             uint64
	obj, prof, conf []byte
}

// cacheSeed seeds every fast key. Keys never leave the process, so one
// random seed per process is enough.
var cacheSeed = maphash.MakeSeed()

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{cap: capacity, maxBytes: maxBytes, order: list.New(),
		entries: map[uint64]*list.Element{}, blobs: map[uint64]*blob{}, keyMask: ^uint64(0)}
}

// canonicalConfig serializes everything in conf the squash output depends
// on. Worker counts are zeroed first: the pipeline is byte-identical at any
// count (the determinism gate), so they must not fragment the cache.
func canonicalConfig(conf core.Config) []byte {
	conf.Workers = 0
	conf.Regions.Workers = 0
	b, _ := json.Marshal(conf) // struct of scalars; cannot fail
	return b
}

// writeParts feeds length-prefixed parts to h, so no two part lists hash
// the same stream.
func writeParts(h hash.Hash, parts ...[]byte) {
	var n [4]byte
	for _, part := range parts {
		binary.LittleEndian.PutUint32(n[:], uint32(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
}

// identify computes a request's cache identity. It works with caching
// disabled too: batch dedup groups items by the same identity.
func (c *resultCache) identify(obj, prof []byte, conf core.Config) requestID {
	id := requestID{obj: obj, prof: prof, conf: canonicalConfig(conf)}
	var h maphash.Hash
	h.SetSeed(cacheSeed)
	writeParts(&h, obj, prof, id.conf)
	id.key = h.Sum64() & c.keyMask
	return id
}

func (id *requestID) equal(o *requestID) bool {
	return bytes.Equal(id.conf, o.conf) && bytes.Equal(id.obj, o.obj) && bytes.Equal(id.prof, o.prof)
}

func (e *cacheEntry) matches(id *requestID) bool {
	return id.equal(&requestID{obj: e.obj.data, prof: e.prof.data, conf: e.conf})
}

func (c *resultCache) get(id *requestID) (*cacheEntry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[id.key]
	var e *cacheEntry
	if ok {
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	// The byte comparison runs outside the lock: an entry's bytes never
	// change, and eviction only unlinks it.
	if !ok || !e.matches(id) {
		return nil, false
	}
	c.mu.Lock()
	if c.entries[id.key] == el {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
	return e, true
}

// put inserts the result for id and evicts from the LRU tail until both the
// entry cap and the byte budget hold again. It returns the resident entry
// count and byte total after the insert, from the same critical section, so
// the caller's gauge stays accurate across multi-entry evictions. An entry
// whose image and request bytes together exceed the whole byte budget is
// not cached at all: admitting it would evict everything else and still
// bust the budget.
func (c *resultCache) put(id *requestID, image []byte, stats core.Stats, foot core.Footprint) (entries int, bytes int64) {
	if c.cap <= 0 {
		return 0, 0
	}
	objHash, profHash := c.blobHash(id.obj), c.blobHash(id.prof)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(image)+len(id.obj)+len(id.prof)) > c.maxBytes {
		return c.order.Len(), c.bytes
	}
	if el, ok := c.entries[id.key]; ok {
		if el.Value.(*cacheEntry).matches(id) {
			// Concurrent miss on the same request: both computed the same
			// bytes; keep the resident entry.
			c.order.MoveToFront(el)
			return c.order.Len(), c.bytes
		}
		// Fast-key collision: the newer request takes the slot.
		c.remove(el)
	}
	e := &cacheEntry{key: id.key, obj: c.intern(id.obj, objHash), prof: c.intern(id.prof, profHash),
		conf: id.conf, image: image, stats: stats, foot: foot}
	c.entries[id.key] = c.order.PushFront(e)
	c.bytes += int64(len(image))
	for c.order.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.remove(c.order.Back())
	}
	return c.order.Len(), c.bytes
}

func (c *resultCache) blobHash(data []byte) uint64 {
	return maphash.Bytes(cacheSeed, data) & c.keyMask
}

// intern returns a reference to the resident copy of data, copying it in
// on first use. A blob-hash collision gets a private copy outside the index.
// Callers hold c.mu.
func (c *resultCache) intern(data []byte, h uint64) *blob {
	b, indexed := c.blobs[h]
	if indexed && bytes.Equal(b.data, data) {
		b.refs++
		return b
	}
	b = &blob{hash: h, data: bytes.Clone(data), refs: 1}
	if !indexed {
		c.blobs[h] = b
	}
	c.bytes += int64(len(data))
	return b
}

func (c *resultCache) release(b *blob) {
	if b.refs--; b.refs > 0 {
		return
	}
	if c.blobs[b.hash] == b {
		delete(c.blobs, b.hash)
	}
	c.bytes -= int64(len(b.data))
}

// remove unlinks one resident entry and drops its blob references. Callers
// hold c.mu.
func (c *resultCache) remove(el *list.Element) {
	e := c.order.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.image))
	c.release(e.obj)
	c.release(e.prof)
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports resident entries and their total bytes: images plus
// interned request bytes.
func (c *resultCache) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
