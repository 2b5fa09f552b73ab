package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
)

// processBatch executes one OpBatch frame on a pool worker. Items are
// grouped by request identity first: each unique (object, profile,
// config) — or (bench, scale, config) — runs the ordinary one-shot path
// exactly once, and every duplicate reuses that result with Shared set. That is where
// the amortization lives: codebook training happens once per unique
// object, benchmark preparation once per unique (bench, scale), and both
// the global result cache and the prep cache apply exactly as for single
// requests, so batch responses stay byte-identical to one-shot squash.
//
// Unique groups fan out across goroutines bounded by the server's worker
// option; results keep item order. Errors are per-item: a malformed object,
// or a panic while processing one, produces an error result at its own
// index and nowhere else.
func (s *Server) processBatch(req *Request) *Response {
	items := req.Items
	if len(items) == 0 {
		return errResponse("batch request needs at least one item")
	}
	if len(items) > MaxBatchItems {
		return errResponse(fmt.Sprintf("batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}

	// Group duplicate items; groups[gi] processes once for all its members.
	// Inline items group by exact request identity (fast key, then byte
	// equality), named-benchmark items by (bench, scale, config).
	type group struct {
		first int       // representative item index
		id    requestID // inline groups: the identity members must equal
		resp  *Response
	}
	groupOf := make([]int, len(items))
	inline := map[uint64][]int{} // fast key → groups under it
	named := map[string]int{}
	var groups []*group
	for i := range items {
		it := &items[i]
		conf := core.DefaultConfig()
		if it.Config != nil {
			conf = *it.Config
		}
		gi := -1
		if it.Bench != "" {
			scale := it.Scale
			if scale == 0 {
				scale = 1.0
			}
			k := fmt.Sprintf("%s\x00%g\x00%s", it.Bench, scale, canonicalConfig(conf))
			if g, ok := named[k]; ok {
				gi = g
			} else {
				gi = len(groups)
				named[k] = gi
				groups = append(groups, &group{first: i})
			}
		} else {
			id := s.cache.identify(it.Obj, it.Profile, conf)
			for _, g := range inline[id.key] {
				if groups[g].id.equal(&id) {
					gi = g
					break
				}
			}
			if gi < 0 {
				gi = len(groups)
				inline[id.key] = append(inline[id.key], gi)
				groups = append(groups, &group{first: i, id: id})
			}
		}
		groupOf[i] = gi
	}

	// Never returns an error: each group's failure lands in its own resp.
	parallel.ForEach(len(groups), s.opts.Workers, func(gi int) error {
		g := groups[gi]
		g.resp = s.guard(func() *Response { return s.processItem(&items[g.first], req.NoImage) })
		return nil
	})

	results := make([]BatchResult, len(items))
	shared := 0
	for i := range items {
		g := groups[groupOf[i]]
		r := g.resp
		results[i] = BatchResult{
			OK: r.OK, Err: r.Err, Image: r.Image, Stats: r.Stats, Foot: r.Foot,
			Cached: r.Cached, PrepCached: r.PrepCached, Shared: i != g.first,
		}
		if i != g.first {
			shared++
		}
	}
	s.met.batch(len(items), shared)
	return &Response{OK: true, Results: results}
}

// processItem runs one batch item through the same code path as its
// one-shot op, so per-object behavior (validation, caching, byte output)
// cannot drift between batch and single-request serving. The frame-level
// NoImage flag applies to every item.
func (s *Server) processItem(it *BatchItem, noImage bool) *Response {
	if it.Bench != "" {
		return s.process(&Request{Op: OpBench, Bench: it.Bench, Scale: it.Scale, Config: it.Config, NoImage: noImage})
	}
	return s.process(&Request{Op: OpSquash, Obj: it.Obj, Profile: it.Profile, Config: it.Config, NoImage: noImage})
}
