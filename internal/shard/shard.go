// Package shard implements the final AI-readiness stage (paper Fig. 1 and
// Table 2, level 5: "data partitioned into train/test/val & sharded into
// binary formats for scalable ingestion"): a size-targeted shard writer
// with optional compression, a manifest with per-shard checksums, parallel
// multi-writer sharding, and a verifying reader.
//
// Records inside a shard use TFRecord framing (length + masked CRC32C), so
// every shard is independently seekable-by-scan and integrity-checked at
// two levels: per record (CRC32C) and per shard (SHA-256 in the manifest).
package shard

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"

	"repro/internal/formats/tfrecord"
)

// Sink creates named shard objects. Implementations: MemSink (tests,
// in-memory pipelines), or any storage adapter (e.g. parfs).
type Sink interface {
	Create(name string) (io.WriteCloser, error)
}

// Opener retrieves shard objects by name for reading.
type Opener interface {
	Open(name string) (io.ReadCloser, error)
}

// ReadObject reads one whole stored object. When the handle knows the
// object's length — an *os.File by Stat, an in-memory or decrypted
// object by Size — the object is read into one buffer of exactly that
// size; any other handle is read with io.ReadAll. Stored objects are
// immutable once committed, so the length cannot change under the read.
func ReadObject(open Opener, name string) ([]byte, error) {
	rc, err := open.Open(name)
	if err != nil {
		return nil, err
	}
	b, err := readWhole(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return b, err
}

// readWhole reads r to its end, in one exact-size buffer when r can say
// how long it is.
func readWhole(r io.Reader) ([]byte, error) {
	size := int64(-1)
	switch h := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := h.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	case interface{ Size() int64 }:
		size = h.Size()
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteObject stores b as one whole object.
func WriteObject(sink Sink, name string, b []byte) error {
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

// ReaderAtCloser is a random-access read handle on one stored object.
type ReaderAtCloser interface {
	io.ReaderAt
	io.Closer
}

// RangeOpener is the optional random-access side of a store: stores
// that can read at an offset (FSSink via pread, MemSink trivially)
// expose it, and OpenRange reports the object's size with the handle —
// so the serving tier reads a whole sidecar with one open and one
// exact-size ReadAt, and never stats it first. The server requires it
// of every job store. A missing object is an error wrapping
// fs.ErrNotExist.
type RangeOpener interface {
	OpenRange(name string) (ReaderAtCloser, int64, error)
}

// Store is full shard storage: creation, read-back, and enumeration.
// Implementations: MemSink (in-memory) and FSSink (files under a root
// directory, durable once its Syncer barrier returns). A writer's Close
// makes an object visible to Open/Names/Size; it promises nothing about
// a power cut.
type Store interface {
	Sink
	Opener
	// Names lists finished shard names, sorted.
	Names() []string
	// Size returns the stored byte size of a shard (0 if absent).
	Size(name string) int64
}

// MemSink stores shards in memory and satisfies both Sink and Opener.
type MemSink struct {
	mu     sync.Mutex
	shards map[string]*bytes.Buffer
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink { return &MemSink{shards: make(map[string]*bytes.Buffer)} }

type memShard struct {
	buf  *bytes.Buffer
	sink *MemSink
	name string
	done bool
}

func (m *memShard) Write(p []byte) (int, error) { return m.buf.Write(p) }

func (m *memShard) Close() error {
	if m.done {
		return nil
	}
	m.done = true
	m.sink.mu.Lock()
	defer m.sink.mu.Unlock()
	m.sink.shards[m.name] = m.buf
	return nil
}

// Create begins a new in-memory shard.
func (s *MemSink) Create(name string) (io.WriteCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.shards[name]; exists {
		return nil, fmt.Errorf("shard: %q already exists", name)
	}
	return &memShard{buf: &bytes.Buffer{}, sink: s, name: name}, nil
}

// Open reads back a finished in-memory shard.
func (s *MemSink) Open(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.shards[name]
	if !ok {
		return nil, notFound(name)
	}
	return memRange{bytes.NewReader(buf.Bytes())}, nil
}

// Names lists stored shard names sorted.
func (s *MemSink) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.shards))
	for n := range s.shards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// notFound is the error for a missing object: it wraps fs.ErrNotExist,
// and no other failure does.
func notFound(name string) error {
	return fmt.Errorf("shard: %q not found: %w", name, fs.ErrNotExist)
}

// memRange is a no-op-close reader over a finished shard's bytes.
type memRange struct{ *bytes.Reader }

func (memRange) Close() error { return nil }

// OpenRange implements RangeOpener. The returned handle reads the
// buffer as of open time; finished in-memory shards are never
// rewritten in place, so that snapshot is stable.
func (s *MemSink) OpenRange(name string) (ReaderAtCloser, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.shards[name]
	if !ok {
		return nil, 0, notFound(name)
	}
	return memRange{bytes.NewReader(buf.Bytes())}, int64(buf.Len()), nil
}

// Size returns the stored byte size of a shard (0 if absent).
func (s *MemSink) Size(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.shards[name]; ok {
		return int64(b.Len())
	}
	return 0
}

// Info describes one finished shard in the manifest.
type Info struct {
	Name        string `json:"name"`
	Records     int    `json:"records"`
	RawBytes    int64  `json:"raw_bytes"`
	StoredBytes int64  `json:"stored_bytes"`
	SHA256      string `json:"sha256"`
}

// Manifest indexes a shard set.
type Manifest struct {
	Prefix     string `json:"prefix"`
	Compressed bool   `json:"compressed"`
	Shards     []Info `json:"shards"`
}

// TotalRecords sums records across shards.
func (m *Manifest) TotalRecords() int {
	n := 0
	for _, s := range m.Shards {
		n += s.Records
	}
	return n
}

// TotalStoredBytes sums stored bytes across shards.
func (m *Manifest) TotalStoredBytes() int64 {
	var n int64
	for _, s := range m.Shards {
		n += s.StoredBytes
	}
	return n
}

// Encode serializes the manifest as JSON.
func (m *Manifest) Encode() ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// DecodeManifest parses a manifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: decode manifest: %w", err)
	}
	return &m, nil
}

// Options configures a Writer.
type Options struct {
	// Prefix names shards "<prefix>-00000", "<prefix>-00001", …
	Prefix string
	// TargetBytes rotates to a new shard once the current shard's raw
	// payload reaches this size. <=0 means a single shard.
	TargetBytes int64
	// Compress wraps each shard in gzip.
	Compress bool
}

// Writer splits a record stream into shards. Not safe for concurrent use;
// for parallel sharding use ParallelWrite.
type Writer struct {
	sink Sink
	opts Options

	cur      io.WriteCloser
	curGzip  *gzip.Writer
	curTFW   *tfrecord.Writer
	curHash  interface{ Sum([]byte) []byte }
	curMulti io.Writer
	curInfo  Info
	counting *countingWriter

	manifest Manifest
	seq      int
	closed   bool
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewWriter returns a shard writer over the sink.
func NewWriter(sink Sink, opts Options) (*Writer, error) {
	if sink == nil {
		return nil, errors.New("shard: nil sink")
	}
	if opts.Prefix == "" {
		opts.Prefix = "shard"
	}
	return &Writer{sink: sink, opts: opts,
		manifest: Manifest{Prefix: opts.Prefix, Compressed: opts.Compress}}, nil
}

func (w *Writer) openShard() error {
	name := fmt.Sprintf("%s-%05d", w.opts.Prefix, w.seq)
	w.seq++
	obj, err := w.sink.Create(name)
	if err != nil {
		return fmt.Errorf("shard: create %q: %w", name, err)
	}
	w.cur = obj
	h := sha256.New()
	w.counting = &countingWriter{w: io.MultiWriter(obj, h)}
	w.curHash = h
	var payload io.Writer = w.counting
	if w.opts.Compress {
		w.curGzip = gzip.NewWriter(w.counting)
		payload = w.curGzip
	}
	w.curTFW = tfrecord.NewWriter(payload)
	w.curInfo = Info{Name: name}
	return nil
}

// Write appends one record, rotating shards at the size target.
func (w *Writer) Write(record []byte) error {
	if w.closed {
		return errors.New("shard: writer closed")
	}
	if w.cur == nil {
		if err := w.openShard(); err != nil {
			return err
		}
	}
	if err := w.curTFW.Write(record); err != nil {
		return err
	}
	w.curInfo.Records++
	w.curInfo.RawBytes += int64(len(record)) + 16 // payload + framing
	if w.opts.TargetBytes > 0 && w.curInfo.RawBytes >= w.opts.TargetBytes {
		return w.rotate()
	}
	return nil
}

func (w *Writer) rotate() error {
	if w.cur == nil {
		return nil
	}
	if w.curGzip != nil {
		if err := w.curGzip.Close(); err != nil {
			return fmt.Errorf("shard: close gzip: %w", err)
		}
		w.curGzip = nil
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("shard: close %q: %w", w.curInfo.Name, err)
	}
	w.curInfo.StoredBytes = w.counting.n
	w.curInfo.SHA256 = hex.EncodeToString(w.curHash.Sum(nil))
	w.manifest.Shards = append(w.manifest.Shards, w.curInfo)
	w.cur = nil
	w.curTFW = nil
	return nil
}

// Close flushes the open shard and returns the manifest.
func (w *Writer) Close() (*Manifest, error) {
	if w.closed {
		return nil, errors.New("shard: writer already closed")
	}
	w.closed = true
	if w.cur != nil && w.curInfo.Records > 0 {
		if err := w.rotate(); err != nil {
			return nil, err
		}
	} else if w.cur != nil {
		_ = w.cur.Close()
	}
	return &w.manifest, nil
}

// ParallelWrite shards records across `workers` independent writers, each
// producing its own shard series ("<prefix>-w<k>-…"). Records are
// distributed round-robin; the returned manifest merges all series. This
// is the high-throughput parallel I/O path the paper's scale argument
// (C1) requires.
func ParallelWrite(sink Sink, opts Options, workers int, records [][]byte) (*Manifest, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("shard: workers=%d must be positive", workers)
	}
	if workers == 1 {
		w, err := NewWriter(sink, opts)
		if err != nil {
			return nil, err
		}
		for _, r := range records {
			if err := w.Write(r); err != nil {
				return nil, err
			}
		}
		return w.Close()
	}
	type result struct {
		manifest *Manifest
		err      error
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wopts := opts
			wopts.Prefix = fmt.Sprintf("%s-w%d", opts.Prefix, k)
			w, err := NewWriter(sink, wopts)
			if err != nil {
				results[k] = result{err: err}
				return
			}
			for i := k; i < len(records); i += workers {
				if err := w.Write(records[i]); err != nil {
					results[k] = result{err: err}
					return
				}
			}
			m, err := w.Close()
			results[k] = result{manifest: m, err: err}
		}(k)
	}
	wg.Wait()
	merged := &Manifest{Prefix: opts.Prefix, Compressed: opts.Compress}
	for k, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("shard: worker %d: %w", k, r.err)
		}
		merged.Shards = append(merged.Shards, r.manifest.Shards...)
	}
	sort.Slice(merged.Shards, func(i, j int) bool {
		return merged.Shards[i].Name < merged.Shards[j].Name
	})
	return merged, nil
}

// ErrChecksum reports a shard whose content does not match its manifest.
var ErrChecksum = errors.New("shard: manifest checksum mismatch")

// ReadAll streams every record of every shard in manifest order through
// fn. It verifies the per-shard SHA-256 and per-record CRCs.
func ReadAll(open Opener, m *Manifest, fn func(shard string, record []byte) error) error {
	for _, info := range m.Shards {
		rc, err := open.Open(info.Name)
		if err != nil {
			return fmt.Errorf("shard: open %q: %w", info.Name, err)
		}
		raw, err := io.ReadAll(rc)
		closeErr := rc.Close()
		if err != nil {
			return fmt.Errorf("shard: read %q: %w", info.Name, err)
		}
		if closeErr != nil {
			return fmt.Errorf("shard: close %q: %w", info.Name, closeErr)
		}
		sum := sha256.Sum256(raw)
		if hex.EncodeToString(sum[:]) != info.SHA256 {
			return fmt.Errorf("%w: %q", ErrChecksum, info.Name)
		}
		var payload io.Reader = bytes.NewReader(raw)
		if m.Compressed {
			gz, err := gzip.NewReader(payload)
			if err != nil {
				return fmt.Errorf("shard: gunzip %q: %w", info.Name, err)
			}
			payload = gz
		}
		tr := tfrecord.NewReader(payload)
		count := 0
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("shard: record %d of %q: %w", count, info.Name, err)
			}
			if err := fn(info.Name, rec); err != nil {
				return err
			}
			count++
		}
		if count != info.Records {
			return fmt.Errorf("shard: %q has %d records, manifest says %d", info.Name, count, info.Records)
		}
	}
	return nil
}
