// The disk tier of the zero-copy frame path. PR 7 made warm frame
// serving zero-copy (cached payload slices); this file makes the COLD
// path cheap too: completed jobs carry per-shard frame-ready sidecars
// (domain.Sidecar, "<shard>.fpay"), so a frame stream over a job whose
// caches are empty is served by verifying the sidecar's CRCs and
// io.CopyN-ing payload byte ranges straight off the store — zero codec
// Encode/Decode calls. Every frame-wire shard read resolves through
// frameSourceFor:
//
//	frame cache on  → frameShard fill, which itself prefers the sidecar
//	                  (one read + CRC) over decode+encode
//	sidecar usable  → stream directly from the store via RangeOpener
//	                  (or a whole read for sealed/bio stores)
//	otherwise       → decode+encode for this request and backfill the
//	                  sidecar so the next cold stream takes the fast path
//
// A torn, truncated, or bit-flipped sidecar is rejected by its CRCs,
// deleted, and rebuilt by the fallback it forces — corrupt bytes are
// never served, and the damage costs one request, not every cold open.
package server

import (
	"bytes"
	"fmt"
	"io"

	"context"

	"repro/internal/domain"
	"repro/internal/shard"
)

// frameSource is one shard's frame payload, sliceable by record range:
// either in-memory pre-encoded bytes (*encodedShard, from the frame
// cache or a per-request encode) or an on-store sidecar streamed by
// range (*sidecarStream).
type frameSource interface {
	count() int
	rangeLen(a, b int) int
	writeRange(w io.Writer, a, b int) error
}

// sidecarStream serves a shard's payload ranges straight off the
// store — the fully-cold path that never touches either cache.
type sidecarStream struct {
	sc *domain.Sidecar
}

func (s *sidecarStream) count() int                             { return s.sc.Count() }
func (s *sidecarStream) rangeLen(a, b int) int                  { return int(s.sc.RangeLen(a, b)) }
func (s *sidecarStream) writeRange(w io.Writer, a, b int) error { return s.sc.WriteRange(w, a, b) }

// frameStoreHandle snapshots what the sidecar paths need from a job:
// its raw store, per-job key, and domain.
func (j *Job) frameStoreHandle() (shard.Store, []byte, domain.Spec) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.store, j.key, j.spec
}

// openFrameSidecar opens one shard's sidecar and verifies its
// metadata (format CRC, kind, record count against the manifest).
// ok=false means "no usable sidecar" — absent (silent) or corrupt
// (rejectSidecar) — and the caller falls back to decode+encode. The
// payload CRC is NOT checked here; callers verify it via Payload
// (cache fill) or VerifyPayload (range streaming) before any byte
// reaches a client, and reject the sidecar themselves if it fails.
func (s *Server) openFrameSidecar(job *Job, info shard.Info, codec domain.Codec) (*domain.Sidecar, io.Closer, bool) {
	store, key, spec := job.frameStoreHandle()
	if store == nil {
		return nil, nil, false
	}
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return nil, nil, false
	}
	sealed := key != nil
	name := domain.SidecarName(info.Name)
	if store.Size(plug.StoredName(name, sealed)) == 0 {
		return nil, nil, false
	}
	var (
		sc     *domain.Sidecar
		closer io.Closer
	)
	if ro, ok := store.(shard.RangeOpener); ok && !sealed {
		// Plaintext store with random access: leave the payload on the
		// store and read ranges on demand.
		ra, size, oerr := ro.OpenRange(name)
		if oerr != nil {
			err = oerr
		} else {
			closer = ra
			sc, err = domain.OpenSidecar(ra, size)
		}
	} else {
		// Sealed domains (the opener decrypts whole objects) and stores
		// without range reads: pull the sidecar into memory once.
		var b []byte
		b, err = readObject(plug.Opener(store, key), name)
		if err == nil {
			closer = io.NopCloser(nil)
			sc, err = domain.OpenSidecar(bytes.NewReader(b), int64(len(b)))
		}
	}
	if err == nil && sc.Kind() != codec.Kind() {
		err = fmt.Errorf("sidecar kind %q, codec serves %q", sc.Kind(), codec.Kind())
	}
	if err == nil && sc.Count() != info.Records {
		err = fmt.Errorf("sidecar holds %d records, manifest says %d", sc.Count(), info.Records)
	}
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		s.rejectSidecar(job, info, err)
		return nil, nil, false
	}
	return sc, closer, true
}

// objectRemover is the optional store side that replacing a damaged
// sidecar needs (shard.FSSink has it). Stores without it keep the file
// and pay the fallback on every cold open.
type objectRemover interface {
	Remove(name string) error
}

// rejectSidecar counts and logs an unusable sidecar and deletes it:
// the store refuses to create over a taken name, so a rejected file
// left in place would block its own backfill and be rejected again on
// every cold open. A concurrent request that rejected the same file
// may delete the replacement this one's fallback just built; that
// costs a second rebuild, never a bad byte.
func (s *Server) rejectSidecar(job *Job, info shard.Info, cause error) {
	s.metrics.frameStoreErrors.Inc()
	s.logger.Warn("frame sidecar unusable; falling back to encode and rebuilding",
		"job", job.id, "shard", info.Name, "error", cause.Error())
	store, key, spec := job.frameStoreHandle()
	rm, ok := store.(objectRemover)
	if !ok {
		return
	}
	if plug, err := domain.Lookup(spec.Domain); err == nil {
		_ = rm.Remove(plug.StoredName(domain.SidecarName(info.Name), key != nil)) // already gone is fine
	}
}

func readObject(open shard.Opener, name string) ([]byte, error) {
	rc, err := open.Open(name)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return b, err
}

// frameSourceFor resolves one shard of a frame-wire stream to its
// cheapest servable form (see the package comment's decision tree).
// Sources backed by open store handles are appended to closers; the
// stream closes them when it ends.
func (s *Server) frameSourceFor(ctx context.Context, job *Job, dom string, m *shard.Manifest, info shard.Info, open shard.Opener, codec domain.Codec, closers *[]io.Closer) (frameSource, error) {
	if s.frameCacheOn {
		return s.frameShard(ctx, job, dom, m, info, open, codec)
	}
	if !s.opts.DisableFrameStore {
		if sc, closer, ok := s.openFrameSidecar(job, info, codec); ok {
			if err := sc.VerifyPayload(); err != nil {
				closer.Close()
				s.rejectSidecar(job, info, err)
			} else {
				*closers = append(*closers, closer)
				s.metrics.frameStoreHits.Inc()
				s.metrics.frameStoreBytes.Add(float64(sc.PayloadLen()))
				return &sidecarStream{sc: sc}, nil
			}
		}
		s.metrics.frameStoreMisses.Inc()
	}
	records, err := s.shardRecords(ctx, job.id, dom, m, info, open, codec)
	if err != nil {
		return nil, err
	}
	payload, offsets, err := domain.EncodeRecordPayloads(codec, records)
	if err != nil {
		return nil, err
	}
	if !s.opts.DisableFrameStore {
		s.backfillSidecar(job, info, codec, payload, offsets)
	}
	return &encodedShard{payload: payload, offsets: offsets}, nil
}

// backfillSidecar lazily materializes the sidecar for a shard that
// lacks one — replayed pre-sidecar jobs (or a shard whose sidecar was
// lost or rejected) converge to the disk tier on first frame access.
// Failure is a lost optimization, never a request error; a concurrent
// duplicate backfill loses the store's no-replace commit harmlessly
// (identical bytes) and is not counted. Nobody waits for a backfilled
// sidecar's fsync: a power cut can leave it empty or torn, which the
// next open treats like any other damage.
func (s *Server) backfillSidecar(job *Job, info shard.Info, codec domain.Codec, payload []byte, offsets []int64) {
	store, key, spec := job.frameStoreHandle()
	if store == nil {
		return
	}
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return
	}
	name := domain.SidecarName(info.Name)
	stored := plug.StoredName(name, key != nil)
	if store.Size(stored) > 0 {
		return
	}
	b, err := domain.AppendSidecar(nil, codec.Kind(), payload, offsets)
	if err == nil {
		err = writeObject(plug.Sink(store, key), name, b)
	}
	if err != nil && store.Size(stored) == 0 {
		// An empty file holding the name reads as absent to everyone but
		// the store's commit. Clear it and try once more.
		if rm, ok := store.(objectRemover); ok && rm.Remove(stored) == nil {
			s.metrics.frameStoreErrors.Inc()
			s.logger.Warn("empty frame sidecar replaced", "job", job.id, "shard", info.Name)
			err = writeObject(plug.Sink(store, key), name, b)
		}
	}
	if err != nil {
		// A concurrent request may have backfilled first and won the
		// store's commit; that's success, not an error.
		if store.Size(stored) > 0 {
			return
		}
		s.metrics.frameStoreErrors.Inc()
		s.logger.Debug("sidecar backfill failed", "job", job.id, "shard", info.Name, "error", err.Error())
		return
	}
	s.metrics.frameStoreBackfills.Inc()
	s.logger.Debug("sidecar backfilled", "job", job.id, "shard", info.Name, "bytes", len(b))
}

func writeObject(sink shard.Sink, name string, b []byte) error {
	wc, err := sink.Create(name)
	if err != nil {
		return err
	}
	if _, err := wc.Write(b); err != nil {
		wc.Close()
		return err
	}
	return wc.Close()
}

// buildJobSidecars writes every shard's sidecar at job completion so
// the first cold frame stream already has the disk tier. Failures are
// logged and error-counted but never fail the job — serving falls
// back to decode+encode (and lazy backfill) for whatever is missing.
func (s *Server) buildJobSidecars(job *Job, store shard.Store, m *shard.Manifest, key []byte) {
	if s.opts.DisableFrameStore || m == nil {
		return
	}
	job.mu.Lock()
	spec := job.spec
	job.mu.Unlock()
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return
	}
	built, err := domain.BuildShardSidecars(plug, store, m, key)
	if err != nil {
		s.metrics.frameStoreErrors.Inc()
		s.logger.Warn("frame sidecar build incomplete", "job", job.id, "built", built, "error", err.Error())
		return
	}
	if built > 0 {
		s.logger.Debug("frame sidecars written", "job", job.id, "shards", built)
	}
}
