package streamcomp

import (
	"repro/internal/huffman"
	"repro/internal/isa"
)

// StreamStat describes one operand stream's codebook: how many distinct
// values it codes and how many bytes its serialized table occupies in
// the squashed image.
type StreamStat struct {
	Kind       isa.StreamKind
	Values     int
	TableBytes int
	MaxCodeLen int
}

// StreamStats reports the per-stream codebook shape. Telemetry for the
// paper's per-stream breakdown (Table 3); callers gate it behind an
// enabled recorder since it serializes each table to measure it.
func (c *Compressor) StreamStats() []StreamStat {
	out := make([]StreamStat, isa.NumStreams)
	for k := range c.codes {
		blob, _ := c.codes[k].MarshalBinary()
		out[k] = StreamStat{
			Kind:       isa.StreamKind(k),
			Values:     c.codes[k].NumValues(),
			TableBytes: len(blob),
			MaxCodeLen: c.codes[k].MaxLen(),
		}
	}
	return out
}

// StreamBits re-walks the field split of every sequence (sentinels
// included) and totals the coded bits each stream contributes. The sum
// over streams equals the blob's bit length; the per-stream split is
// what the merged blob obscures. Costs one extra pass, so
// callers only invoke it when telemetry is on.
func (c *Compressor) StreamBits(seqs [][]uint32) [isa.NumStreams]uint64 {
	var bits [isa.NumStreams]uint64
	for _, seq := range seqs {
		mtf := c.newMTF()
		count := func(k isa.StreamKind, v uint32) {
			if mtf != nil {
				v = mtf[k].encode(v)
			}
			bits[k] += uint64(c.codes[k].CodeLen(v))
		}
		for _, w := range seq {
			count(isa.StreamOpcode, w>>26)
			for _, r := range isa.LayoutOf(w).Fields {
				count(r.Kind, w>>r.Shift&(1<<r.Bits-1))
			}
		}
		count(isa.StreamOpcode, isa.OpIllegal)
	}
	return bits
}

// DecodeStats sums the decode-path counters across all stream codes.
func (c *Compressor) DecodeStats() huffman.DecodeStats {
	var total huffman.DecodeStats
	for _, code := range c.codes {
		if code != nil {
			code.Stats.AddTo(&total)
		}
	}
	return total
}
