// Frame-ready shard sidecars: each sealed shard can carry a
// `<shard>.fpay` companion holding its records already packed in the
// frame wire's payload encoding, plus the per-record boundary offsets.
// A cold frame stream is then served by writing FrameEnvelope headers
// and io.CopyN-ing payload byte ranges straight off the store — zero
// codec Encode/Decode calls — instead of decode+encode per request.
//
// Sidecar layout (all fixed-width integers little-endian):
//
//	header  := "FPAY" version(u8) kindLen(u8) kind
//	payload := EncodeRecordPayloads bytes (count records, packed)
//	index   := (count+1) × u64 offsets into payload; index[0] = 0,
//	           index[count] = len(payload); record i occupies
//	           payload[index[i]:index[i+1]]
//	footer  := count(u64) payloadLen(u64)
//	           crcPayload(u32, CRC-32C of payload)
//	           crcMeta(u32, CRC-32C of header‖index‖footer[0:20])
//	           "YAPF"
//
// The index and footer trail the payload so a writer can stream the
// payload without knowing record boundaries up front, and a reader
// can locate everything from the file size alone: footer at size-28,
// index just before it. Both CRCs split the failure domains — crcMeta
// guards the bytes the parser trusts for addressing, crcPayload
// guards the record bytes themselves — so a torn or bit-flipped
// sidecar is detected before a single corrupt byte reaches the wire.
package domain

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/shard"
)

// SidecarSuffix names a shard's frame-ready companion object:
// <shard>.fpay (sealed domains store it as <shard>.fpay.enc, encrypted
// under the same per-job key as the shard).
const SidecarSuffix = ".fpay"

// SidecarName returns the sidecar object name for a shard name.
func SidecarName(shardName string) string { return shardName + SidecarSuffix }

const (
	sidecarVersion   = 1
	sidecarHeaderMin = 6  // magic + version + kindLen, before the kind bytes
	sidecarFooterLen = 28 // count + payloadLen + crcPayload + crcMeta + trailer
)

var (
	sidecarMagic   = [4]byte{'F', 'P', 'A', 'Y'}
	sidecarTrailer = [4]byte{'Y', 'A', 'P', 'F'}
	sidecarCRC     = crc32.MakeTable(crc32.Castagnoli)
)

// AppendSidecar serializes one shard's frame-ready sidecar from the
// EncodeRecordPayloads result: payload holds the packed records, and
// offsets their len+1 boundary offsets. The whole file is built in
// memory — shards are capped at tens of KiB by every domain's shard
// target, so there is nothing to stream.
func AppendSidecar(dst []byte, kind string, payload []byte, offsets []int64) ([]byte, error) {
	if kind == "" || len(kind) > maxKindLen {
		return nil, fmt.Errorf("domain: sidecar kind %q out of range (1..%d bytes)", kind, maxKindLen)
	}
	if len(offsets) == 0 || offsets[0] != 0 || offsets[len(offsets)-1] != int64(len(payload)) {
		return nil, fmt.Errorf("domain: sidecar offsets do not span the %d-byte payload", len(payload))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("domain: sidecar offsets decrease at record %d", i-1)
		}
	}
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("domain: sidecar payload %d bytes exceeds %d", len(payload), MaxFrameBytes)
	}
	metaStart := len(dst)
	dst = append(dst, sidecarMagic[:]...)
	dst = append(dst, sidecarVersion, byte(len(kind)))
	dst = append(dst, kind...)
	dst = append(dst, payload...)
	indexStart := len(dst)
	for _, off := range offsets {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(offsets)-1))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, sidecarCRC))
	crcMeta := crc32.Checksum(dst[metaStart:metaStart+sidecarHeaderMin+len(kind)], sidecarCRC)
	crcMeta = crc32.Update(crcMeta, sidecarCRC, dst[indexStart:])
	dst = binary.LittleEndian.AppendUint32(dst, crcMeta)
	return append(dst, sidecarTrailer[:]...), nil
}

// EncodeSidecarFile packs recs with c and serializes the sidecar in
// one step — the builder-side entry point.
func EncodeSidecarFile(c Codec, recs []any) ([]byte, error) {
	payload, offsets, err := EncodeRecordPayloads(c, recs)
	if err != nil {
		return nil, err
	}
	return AppendSidecar(nil, c.Kind(), payload, offsets)
}

// Sidecar is a parsed, metadata-verified sidecar handle. The payload
// stays behind the ReaderAt until Payload, VerifyPayload or WriteRange
// reads it, but the header, index, and footer have already been read,
// bounds-checked, and CRC-verified.
type Sidecar struct {
	kind       string
	ra         io.ReaderAt
	payloadOff int64
	payloadLen int64
	offsets    []int64
	crcPayload uint32
}

// OpenSidecar parses and verifies a sidecar's metadata from a
// random-access handle of the given total size. Every length is
// checked against size before anything is allocated, so a truncated,
// torn, or hostile file fails cleanly here. The payload bytes are NOT
// verified — call VerifyPayload (streaming) or Payload (in-memory)
// before serving from it.
func OpenSidecar(ra io.ReaderAt, size int64) (*Sidecar, error) {
	if size < sidecarHeaderMin+8+sidecarFooterLen {
		return nil, fmt.Errorf("domain: sidecar %d bytes is too short", size)
	}
	var head [sidecarHeaderMin + maxKindLen]byte
	hn := int64(len(head))
	if hn > size-sidecarFooterLen {
		hn = size - sidecarFooterLen
	}
	if _, err := io.ReadFull(io.NewSectionReader(ra, 0, hn), head[:hn]); err != nil {
		return nil, fmt.Errorf("domain: sidecar header: %w", err)
	}
	if [4]byte(head[:4]) != sidecarMagic {
		return nil, fmt.Errorf("domain: sidecar magic %q is not %q", head[:4], sidecarMagic)
	}
	if head[4] != sidecarVersion {
		return nil, fmt.Errorf("domain: sidecar version %d not supported (want %d)", head[4], sidecarVersion)
	}
	kindLen := int64(head[5])
	if kindLen == 0 || kindLen > maxKindLen || sidecarHeaderMin+kindLen > hn {
		return nil, fmt.Errorf("domain: sidecar kind length %d out of range", kindLen)
	}
	headerLen := sidecarHeaderMin + kindLen

	var foot [sidecarFooterLen]byte
	if _, err := ra.ReadAt(foot[:], size-sidecarFooterLen); err != nil {
		return nil, fmt.Errorf("domain: sidecar footer: %w", err)
	}
	if [4]byte(foot[24:28]) != sidecarTrailer {
		return nil, fmt.Errorf("domain: sidecar trailer %q is not %q", foot[24:28], sidecarTrailer)
	}
	count := binary.LittleEndian.Uint64(foot[0:8])
	payloadLen := binary.LittleEndian.Uint64(foot[8:16])
	if payloadLen > MaxFrameBytes {
		return nil, fmt.Errorf("domain: sidecar payload %d bytes exceeds %d", payloadLen, MaxFrameBytes)
	}
	// Every record costs at least one payload byte (matching the frame
	// decoder's bound), so count<=payloadLen caps the index allocation,
	// and the exact-size equation rejects any torn/truncated file.
	if count > payloadLen {
		return nil, fmt.Errorf("domain: sidecar claims %d records in %d payload bytes", count, payloadLen)
	}
	indexLen := (count + 1) * 8
	if uint64(size) != uint64(headerLen)+payloadLen+indexLen+sidecarFooterLen {
		return nil, fmt.Errorf("domain: sidecar size %d does not match header %d + payload %d + index %d + footer %d",
			size, headerLen, payloadLen, indexLen, sidecarFooterLen)
	}

	index := make([]byte, indexLen)
	indexOff := headerLen + int64(payloadLen)
	if _, err := ra.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("domain: sidecar index: %w", err)
	}
	crcMeta := crc32.Checksum(head[:headerLen], sidecarCRC)
	crcMeta = crc32.Update(crcMeta, sidecarCRC, index)
	crcMeta = crc32.Update(crcMeta, sidecarCRC, foot[:20])
	if got := binary.LittleEndian.Uint32(foot[20:24]); got != crcMeta {
		return nil, fmt.Errorf("domain: sidecar metadata CRC mismatch (stored %08x, computed %08x)", got, crcMeta)
	}

	offsets := make([]int64, count+1)
	for i := range offsets {
		off := binary.LittleEndian.Uint64(index[i*8:])
		if off > payloadLen {
			return nil, fmt.Errorf("domain: sidecar offset %d exceeds payload %d", off, payloadLen)
		}
		offsets[i] = int64(off)
		if i > 0 && offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("domain: sidecar offsets decrease at record %d", i-1)
		}
	}
	if offsets[0] != 0 || offsets[count] != int64(payloadLen) {
		return nil, fmt.Errorf("domain: sidecar offsets do not span the payload")
	}
	return &Sidecar{
		kind:       string(head[sidecarHeaderMin:headerLen]),
		ra:         ra,
		payloadOff: headerLen,
		payloadLen: int64(payloadLen),
		offsets:    offsets,
		crcPayload: binary.LittleEndian.Uint32(foot[16:20]),
	}, nil
}

// Kind returns the wire kind the sidecar's payload is packed as.
func (s *Sidecar) Kind() string { return s.kind }

// Count returns the number of records in the payload.
func (s *Sidecar) Count() int { return len(s.offsets) - 1 }

// PayloadLen returns the total packed payload size in bytes.
func (s *Sidecar) PayloadLen() int64 { return s.payloadLen }

// RangeLen returns the payload byte length of records [a,b).
func (s *Sidecar) RangeLen(a, b int) int64 { return s.offsets[b] - s.offsets[a] }

// WriteRange copies the payload bytes of records [a,b) to w without
// materializing the rest of the payload. It does not check the payload
// CRC; call VerifyPayload first.
func (s *Sidecar) WriteRange(w io.Writer, a, b int) error {
	n := s.RangeLen(a, b)
	if n == 0 {
		return nil
	}
	sr := io.NewSectionReader(s.ra, s.payloadOff+s.offsets[a], n)
	if _, err := io.CopyN(w, sr, n); err != nil {
		return fmt.Errorf("domain: sidecar payload range [%d,%d): %w", a, b, err)
	}
	return nil
}

// Payload reads the whole payload, verifies its CRC, and returns it —
// how the server reads a sidecar into its serving cache.
func (s *Sidecar) Payload() ([]byte, error) {
	p := make([]byte, s.payloadLen)
	if _, err := io.ReadFull(io.NewSectionReader(s.ra, s.payloadOff, s.payloadLen), p); err != nil {
		return nil, fmt.Errorf("domain: sidecar payload: %w", err)
	}
	if got := crc32.Checksum(p, sidecarCRC); got != s.crcPayload {
		return nil, fmt.Errorf("domain: sidecar payload CRC mismatch (stored %08x, computed %08x)", s.crcPayload, got)
	}
	return p, nil
}

// Offsets returns the record boundary offsets (len Count()+1). The
// slice is the Sidecar's own — callers must not mutate it.
func (s *Sidecar) Offsets() []int64 { return s.offsets }

// VerifyPayload streams the payload once and checks its CRC without
// keeping it in memory — the pre-flight for WriteRange, so a
// bit-flipped payload is caught before any of it is copied out.
func (s *Sidecar) VerifyPayload() error {
	h := crc32.New(sidecarCRC)
	if _, err := io.CopyN(h, io.NewSectionReader(s.ra, s.payloadOff, s.payloadLen), s.payloadLen); err != nil {
		return fmt.Errorf("domain: sidecar payload: %w", err)
	}
	if got := h.Sum32(); got != s.crcPayload {
		return fmt.Errorf("domain: sidecar payload CRC mismatch (stored %08x, computed %08x)", s.crcPayload, got)
	}
	return nil
}

// BuildShardSidecars materializes the frame-ready sidecar for every
// shard in m that does not already have one, reading records through
// p's opener (decrypting sealed shards) and writing through p's sink
// (re-sealing sidecars under the same key). It is idempotent —
// existing sidecars are kept — and returns how many were built.
// Callers treat failure as a lost optimization, not a failed job: the
// serving tier falls back to decode+encode when a sidecar is absent.
func BuildShardSidecars(p Plugin, store shard.Store, m *shard.Manifest, key []byte) (int, error) {
	open := p.Opener(store, key)
	sink := p.Sink(store, key)
	sealed := key != nil
	built := 0
	for _, info := range m.Shards {
		if store.Size(p.StoredName(SidecarName(info.Name), sealed)) > 0 {
			continue
		}
		one := &shard.Manifest{Prefix: m.Prefix, Compressed: m.Compressed, Shards: []shard.Info{info}}
		recs := make([]any, 0, info.Records)
		err := shard.ReadAll(open, one, func(_ string, rec []byte) error {
			r, _, err := p.Codec.Decode(rec)
			if err != nil {
				return err
			}
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			return built, fmt.Errorf("domain: sidecar for %s: %w", info.Name, err)
		}
		b, err := EncodeSidecarFile(p.Codec, recs)
		if err != nil {
			return built, fmt.Errorf("domain: sidecar for %s: %w", info.Name, err)
		}
		if err := shard.WriteObject(sink, SidecarName(info.Name), b); err != nil {
			return built, fmt.Errorf("domain: sidecar for %s: %w", info.Name, err)
		}
		built++
	}
	return built, nil
}
