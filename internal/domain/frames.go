// Frame payload encoders: each codec packs its records into the frame
// payload layout internal/wire defines and decodes. A shard's sidecar
// holds these bytes (EncodeRecordPayloads); the serving tier slices
// batches out of them under a fresh wire.FrameEnvelope. EncodeFrame
// builds a whole frame from records, for tests and bench/ probes.
package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/loader"
	"repro/internal/wire"
)

// The negotiation header and frame content type, as wire names them.
// Only bench/ uses these aliases; they go once it names wire's.
const (
	HeaderWire       = wire.HeaderWire
	ContentTypeFrame = wire.ContentTypeFrame
)

// EncodeFrame renders one complete batch frame: h's envelope, then the
// codec's payload for recs.
func EncodeFrame(c Codec, h wire.BatchHeader, recs []any) ([]byte, error) {
	payload, err := c.AppendFramePayload(nil, recs)
	if err != nil {
		return nil, err
	}
	env, err := wire.FrameEnvelope(h, len(recs), len(payload))
	if err != nil {
		return nil, err
	}
	return append(env, payload...), nil
}

// EncodeRecordPayloads encodes recs into one contiguous frame payload
// with per-record boundary offsets (len(recs)+1 entries; record i
// occupies payload[offsets[i]:offsets[i+1]]). Every codec's batch
// payload is the plain concatenation of its records' single-record
// payloads (pinned by TestFramePayloadConcatenation), so any
// contiguous record range [a,b) of the result is byte-identical to
// AppendFramePayload over those records — the invariant the encoded-
// frame shard cache slices batches out of.
func EncodeRecordPayloads(c Codec, recs []any) (payload []byte, offsets []int64, err error) {
	offsets = make([]int64, len(recs)+1)
	for i, r := range recs {
		payload, err = c.AppendFramePayload(payload, []any{r})
		if err != nil {
			return nil, nil, err
		}
		offsets[i+1] = int64(len(payload))
	}
	return payload, offsets, nil
}

// ---- samples ----

func (sampleCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		s, ok := r.(*loader.Sample)
		if !ok {
			return nil, fmt.Errorf("domain: samples codec got %T", r)
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Features)))
		for _, v := range s.Features {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		buf = binary.AppendVarint(buf, int64(s.Label))
	}
	return buf, nil
}

// ---- fusion windows ----

func (fusionCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		w, ok := r.(*FusionWindow)
		if !ok {
			return nil, fmt.Errorf("domain: fusion codec got %T", r)
		}
		buf = binary.AppendUvarint(buf, uint64(len(w.Signal)))
		for _, v := range w.Signal {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		buf = binary.AppendVarint(buf, w.Shot)
		buf = binary.AppendVarint(buf, w.Start)
		buf = binary.AppendVarint(buf, w.Label)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w.Horizon))
	}
	return buf, nil
}

// ---- materials graphs ----

func (materialsCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		g, ok := r.(*wire.Graph)
		if !ok {
			return nil, fmt.Errorf("domain: materials codec got %T", r)
		}
		// Decode validated these invariants; re-check cheaply so a
		// hand-built record cannot emit a frame its own parser rejects.
		if g.Nodes < 1 || g.FeatureDim < 1 || len(g.NodeFeatures) != g.Nodes*g.FeatureDim ||
			len(g.Edges) != 2*len(g.EdgeLengths) {
			return nil, fmt.Errorf("domain: inconsistent graph record (%d nodes × %d dims, %d features, %d edge ints)",
				g.Nodes, g.FeatureDim, len(g.NodeFeatures), len(g.Edges))
		}
		buf = binary.AppendUvarint(buf, uint64(g.Nodes))
		buf = binary.AppendUvarint(buf, uint64(g.FeatureDim))
		for _, v := range g.NodeFeatures {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.EdgeLengths)))
		for _, e := range g.Edges {
			if e < 0 || e >= int64(g.Nodes) {
				return nil, fmt.Errorf("domain: edge endpoint %d outside %d nodes", e, g.Nodes)
			}
			buf = binary.AppendUvarint(buf, uint64(e))
		}
		for _, v := range g.EdgeLengths {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Energy))
		buf = binary.AppendVarint(buf, g.ClassID)
	}
	return buf, nil
}
