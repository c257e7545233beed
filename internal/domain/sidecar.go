// Frame-ready shard sidecars: a `<shard>.fpay` object holds a shard's
// records already packed in the frame wire's payload encoding, plus the
// per-record boundary offsets. It is what a draid job stores for each
// shard, and all it stores: SidecarSink turns each native shard into
// its sidecar as the shard stage writes it, so the native shard never
// reaches the job's store. A cold frame read is one read of the whole
// sidecar, verified by ParseSidecar and served as byte ranges of that
// one image under fresh FrameEnvelope headers — zero codec calls. A
// cold NDJSON read fills from the same verified image (Sidecar.Lines:
// the wire package's decoder, then the line fragments written from its
// columns). Library callers that keep native shards build sidecars from
// them with BuildShardSidecars.
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
// can locate everything from the image's size alone: footer at
// size-28, index just before it. Both CRCs split the failure domains — crcMeta
// guards the bytes the parser trusts for addressing, crcPayload
// guards the record bytes themselves — so a torn or bit-flipped
// sidecar is detected before a single corrupt byte reaches the wire.
package domain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"repro/internal/anonymize"
	"repro/internal/bio"
	"repro/internal/formats/tfrecord"
	"repro/internal/shard"
	"repro/internal/wire"
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
	if kind == "" || len(kind) > wire.MaxKindLen {
		return nil, fmt.Errorf("domain: sidecar kind %q out of range (1..%d bytes)", kind, wire.MaxKindLen)
	}
	if len(offsets) == 0 || offsets[0] != 0 || offsets[len(offsets)-1] != int64(len(payload)) {
		return nil, fmt.Errorf("domain: sidecar offsets do not span the %d-byte payload", len(payload))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("domain: sidecar offsets decrease at record %d", i-1)
		}
	}
	if len(payload) > wire.MaxFrameBytes {
		return nil, fmt.Errorf("domain: sidecar payload %d bytes exceeds %d", len(payload), wire.MaxFrameBytes)
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

// ErrCorrupt is wrapped by every error meaning an object's bytes were
// read in full but fail a format or integrity check: a sidecar
// ParseSidecar refuses, or a sealed object that does not open under its
// key. A store's own failures (a missing or unreadable object) never
// wrap it, so a reader can delete what is damaged and keep what it
// merely could not read this time.
var ErrCorrupt = errors.New("domain: corrupt object")

// corruptError marks err as ErrCorrupt without changing its text.
type corruptError struct{ err error }

func (e corruptError) Error() string   { return e.err.Error() }
func (e corruptError) Unwrap() []error { return []error{ErrCorrupt, e.err} }

func corruptf(format string, args ...any) error {
	return corruptError{fmt.Errorf(format, args...)}
}

// maxSidecarBytes bounds a sidecar's size: the largest payload, plus
// one index entry per payload byte (every record costs at least one),
// plus header and footer. OpenSidecar refuses a larger size before it
// allocates anything.
const maxSidecarBytes = sidecarHeaderMin + wire.MaxKindLen + wire.MaxFrameBytes + (wire.MaxFrameBytes+1)*8 + sidecarFooterLen

// Sidecar is a parsed and fully verified sidecar held in memory: its
// kind, payload and offset index are sub-slices of the one image it was
// parsed from, and both CRCs have been checked. It is immutable and
// safe to share between readers.
type Sidecar struct {
	image   []byte // the whole sidecar
	kind    string
	payload []byte // image's payload section
	index   []byte // image's offset index: Count()+1 little-endian u64s
}

// ParseSidecar verifies a whole sidecar image — header, footer, the
// exact-size equation, the metadata CRC, every index offset and the
// payload CRC — and returns it as a Sidecar over b, copying nothing. A
// truncated, torn, bit-flipped or hostile image fails here, with an
// error wrapping ErrCorrupt, before a single byte of it can be served.
// b must not be modified afterwards.
func ParseSidecar(b []byte) (*Sidecar, error) {
	size := uint64(len(b))
	if size < sidecarHeaderMin+8+sidecarFooterLen {
		return nil, corruptf("domain: sidecar %d bytes is too short", size)
	}
	if [4]byte(b[:4]) != sidecarMagic {
		return nil, corruptf("domain: sidecar magic %q is not %q", b[:4], sidecarMagic)
	}
	if b[4] != sidecarVersion {
		return nil, corruptf("domain: sidecar version %d not supported (want %d)", b[4], sidecarVersion)
	}
	kindLen := uint64(b[5])
	if kindLen == 0 || kindLen > wire.MaxKindLen || sidecarHeaderMin+kindLen > size-sidecarFooterLen {
		return nil, corruptf("domain: sidecar kind length %d out of range", kindLen)
	}
	headerLen := sidecarHeaderMin + kindLen

	foot := b[size-sidecarFooterLen:]
	if [4]byte(foot[24:28]) != sidecarTrailer {
		return nil, corruptf("domain: sidecar trailer %q is not %q", foot[24:28], sidecarTrailer)
	}
	count := binary.LittleEndian.Uint64(foot[0:8])
	payloadLen := binary.LittleEndian.Uint64(foot[8:16])
	if payloadLen > wire.MaxFrameBytes {
		return nil, corruptf("domain: sidecar payload %d bytes exceeds %d", payloadLen, wire.MaxFrameBytes)
	}
	// Every record costs at least one payload byte (matching the frame
	// decoder's bound), so count<=payloadLen bounds the index, and the
	// exact-size equation rejects any torn/truncated file.
	if count > payloadLen {
		return nil, corruptf("domain: sidecar claims %d records in %d payload bytes", count, payloadLen)
	}
	indexLen := (count + 1) * 8
	if size != headerLen+payloadLen+indexLen+sidecarFooterLen {
		return nil, corruptf("domain: sidecar size %d does not match header %d + payload %d + index %d + footer %d",
			size, headerLen, payloadLen, indexLen, sidecarFooterLen)
	}

	indexOff := headerLen + payloadLen
	index := b[indexOff : indexOff+indexLen : indexOff+indexLen]
	crcMeta := crc32.Checksum(b[:headerLen], sidecarCRC)
	crcMeta = crc32.Update(crcMeta, sidecarCRC, index)
	crcMeta = crc32.Update(crcMeta, sidecarCRC, foot[:20])
	if got := binary.LittleEndian.Uint32(foot[20:24]); got != crcMeta {
		return nil, corruptf("domain: sidecar metadata CRC mismatch (stored %08x, computed %08x)", got, crcMeta)
	}
	var prev uint64
	for i := uint64(0); i <= count; i++ {
		off := binary.LittleEndian.Uint64(index[i*8:])
		if off > payloadLen {
			return nil, corruptf("domain: sidecar offset %d exceeds payload %d", off, payloadLen)
		}
		if off < prev {
			return nil, corruptf("domain: sidecar offsets decrease at record %d", i-1)
		}
		prev = off
	}
	if binary.LittleEndian.Uint64(index) != 0 || prev != payloadLen {
		return nil, corruptf("domain: sidecar offsets do not span the payload")
	}

	payload := b[headerLen:indexOff:indexOff]
	if want, got := binary.LittleEndian.Uint32(foot[16:20]), crc32.Checksum(payload, sidecarCRC); got != want {
		return nil, corruptf("domain: sidecar payload CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return &Sidecar{image: b, kind: string(b[sidecarHeaderMin:headerLen]), payload: payload, index: index}, nil
}

// OpenSidecar reads a whole sidecar of the given size from a
// random-access handle in one ReadAt and parses it with ParseSidecar. A
// size no sidecar can have is refused before anything is allocated. A
// failed read returns the handle's error as is, so only the parser's
// verdicts wrap ErrCorrupt.
func OpenSidecar(ra io.ReaderAt, size int64) (*Sidecar, error) {
	if size < 0 || size > maxSidecarBytes {
		return nil, corruptf("domain: sidecar size %d out of range", size)
	}
	b := make([]byte, size)
	if n, err := ra.ReadAt(b, 0); n < len(b) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("domain: sidecar read: %w", err)
	}
	return ParseSidecar(b)
}

// Kind returns the wire kind the sidecar's payload is packed as.
func (s *Sidecar) Kind() string { return s.kind }

// Count returns the number of records in the payload.
func (s *Sidecar) Count() int { return len(s.index)/8 - 1 }

// offset returns where record i starts in the payload; offset(Count())
// is the payload length.
func (s *Sidecar) offset(i int) int64 { return int64(binary.LittleEndian.Uint64(s.index[i*8:])) }

// PayloadLen returns the total packed payload size in bytes.
func (s *Sidecar) PayloadLen() int64 { return int64(len(s.payload)) }

// RangeLen returns the payload byte length of records [a,b).
func (s *Sidecar) RangeLen(a, b int) int64 { return s.offset(b) - s.offset(a) }

// Bytes returns the whole sidecar image — byte for byte what a store
// holds for it. Callers must not modify it.
func (s *Sidecar) Bytes() []byte { return s.image }

// WriteRange writes the payload bytes of records [a,b) to w.
func (s *Sidecar) WriteRange(w io.Writer, a, b int) error {
	if a == b {
		return nil
	}
	_, err := w.Write(s.payload[s.offset(a):s.offset(b)])
	return err
}

// Lines decodes the sidecar's payload with the wire decoder, keyed by
// the sidecar's kind, and encodes the records as NDJSON line fragments
// from the decoded columns: the NDJSON wire's fill from a verified
// sidecar. It fails where json.Marshal of a line holding the records
// fails (NaN or ±Inf), with the same message.
func (s *Sidecar) Lines() (*LineFragments, error) {
	d := decoders.Get().(*wire.Decoder)
	b, err := d.DecodePayload(s.kind, s.payload, s.Count())
	decoders.Put(d)
	if err != nil {
		return nil, err
	}
	return EncodeBatchJSON(b)
}

// decoders keeps wire decoders, with their edge scratch, between fills.
var decoders = sync.Pool{New: func() any { return new(wire.Decoder) }}

// VerifyPayload reports whether the payload matches its CRC. ParseSidecar
// checks it before it returns a Sidecar, so this is always nil; it stays
// for callers that open a sidecar and verify it as two steps.
func (s *Sidecar) VerifyPayload() error { return nil }

// BuildShardSidecars materializes the frame-ready sidecar for every
// shard in m that does not already have one, reading records through
// p's opener (checksums verified, sealed shards decrypted) and writing
// through p's sink (re-sealing sidecars under the same key). It is
// idempotent — existing sidecars are kept — and returns how many were
// built. It is the library path for callers that keep native shards; a
// draid job decodes its records once, in SidecarSink.
func BuildShardSidecars(p Plugin, store shard.Store, m *shard.Manifest, key []byte) (int, error) {
	open, sink := p.Opener(store, key), p.Sink(store, key)
	built := 0
	for _, info := range m.Shards {
		if store.Size(p.StoredName(SidecarName(info.Name), key != nil)) > 0 {
			continue
		}
		one := &shard.Manifest{Prefix: m.Prefix, Compressed: m.Compressed, Shards: []shard.Info{info}}
		var frames [][]byte
		err := shard.ReadAll(open, one, func(_ string, rec []byte) error {
			frames = append(frames, rec)
			return nil
		})
		var b []byte
		if err == nil {
			b, err = sidecarOf(p.Codec, frames)
		}
		if err == nil {
			err = shard.WriteObject(sink, SidecarName(info.Name), b)
		}
		if err != nil {
			return built, fmt.Errorf("domain: sidecar for %s: %w", info.Name, err)
		}
		built++
	}
	return built, nil
}

// sidecarOf decodes a shard's native records with c and packs them into
// its sidecar image.
func sidecarOf(c Codec, frames [][]byte) ([]byte, error) {
	recs := make([]any, len(frames))
	for i, f := range frames {
		var err error
		if recs[i], _, err = c.Decode(f); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return EncodeSidecarFile(c, recs)
}

// SidecarSink is the shard sink of a job that stores each record once,
// as its shard's sidecar. Each object the shard stage creates is held
// in memory until its Close; Close reads its TFRecord frames back (for
// a sealed job, after opening the sealed blob under Key), decodes every
// record with the plugin's codec, packs the records with
// EncodeSidecarFile and writes only SidecarName(shard) through
// Plugin.Sink. Native bytes never reach the store. StoredManifest then
// rewrites the product's manifest to describe the sidecars. It is safe
// for concurrent writers.
type SidecarSink struct {
	Plugin Plugin
	Store  shard.Store
	// Key is the job key (nil: the job is not sealed). Set it once Build
	// has returned it, before the pipeline runs.
	Key []byte

	mu    sync.Mutex
	built map[string]builtSidecar // by shard name
}

// builtSidecar is what SidecarSink learned of one shard while storing
// its sidecar.
type builtSidecar struct {
	native  [sha256.Size]byte // the native shard's plaintext, as its writer hashed it
	records int
	stored  int64             // the sidecar object's size on the store
	image   [sha256.Size]byte // the sidecar's plaintext image
}

// Create implements shard.Sink.
func (s *SidecarSink) Create(name string) (io.WriteCloser, error) {
	return &sidecarShard{sink: s, name: name}, nil
}

type sidecarShard struct {
	bytes.Buffer
	sink *SidecarSink
	name string
}

func (w *sidecarShard) Close() error { return w.sink.transcode(w.name, w.Bytes()) }

// transcode turns one native shard object into its stored sidecar.
func (s *SidecarSink) transcode(object string, native []byte) error {
	name := object
	if s.Key != nil {
		var ok bool
		if name, ok = strings.CutSuffix(object, bio.SealedSuffix); !ok {
			return fmt.Errorf("domain: sealed job wrote unsealed object %q", object)
		}
		plain, err := anonymize.DecryptShard(s.Key, name, native)
		if err != nil {
			return fmt.Errorf("domain: open %s: %w", object, err)
		}
		native = plain
	}
	frames, err := tfrecord.NewReader(bytes.NewReader(native)).ReadAll()
	var image []byte
	if err == nil {
		image, err = sidecarOf(s.Plugin.Codec, frames)
	}
	if err == nil {
		err = shard.WriteObject(s.Plugin.Sink(s.Store, s.Key), SidecarName(name), image)
	}
	if err != nil {
		return fmt.Errorf("domain: sidecar for %s: %w", name, err)
	}
	b := builtSidecar{native: sha256.Sum256(native), records: len(frames), image: sha256.Sum256(image),
		stored: s.Store.Size(s.Plugin.StoredName(SidecarName(name), s.Key != nil))}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.built == nil {
		s.built = make(map[string]builtSidecar)
	}
	s.built[name] = b
	return nil
}

// StoredManifest returns m rewritten to describe what the store holds:
// each shard's StoredBytes becomes its sidecar object's stored size
// (sealed, for a sealed job) and its SHA256 the hash of the sidecar's
// plaintext image; Name, Records and RawBytes stay. A shard with no
// sidecar, or whose sidecar was built from other bytes than m
// describes, is an error.
func (s *SidecarSink) StoredManifest(m *shard.Manifest) (*shard.Manifest, error) {
	out := &shard.Manifest{Prefix: m.Prefix, Compressed: m.Compressed, Shards: make([]shard.Info, len(m.Shards))}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, info := range m.Shards {
		b, ok := s.built[info.Name]
		if !ok {
			return nil, fmt.Errorf("domain: shard %s has no sidecar", info.Name)
		}
		if hex.EncodeToString(b.native[:]) != info.SHA256 || b.records != info.Records {
			return nil, fmt.Errorf("domain: sidecar of %s was built from other bytes than the manifest describes", info.Name)
		}
		info.StoredBytes, info.SHA256 = b.stored, hex.EncodeToString(b.image[:])
		out.Shards[i] = info
	}
	return out, nil
}
