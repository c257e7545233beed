// Durable shard stores. The paper's scale argument (>10 TB training
// sets, §1) rules out holding shard sets in process memory: FSSink
// persists shards as plain files under a root directory with an
// atomically replaced MANIFEST.json (temp file + rename, so readers
// never observe a torn manifest — the same commit discipline as HDF5's
// chunk b-tree flush), and ParfsSink routes the same traffic through
// the simulated striped parallel filesystem so stripe contention stays
// observable in benchmarks.
//
// Durability is a property of the shard SET, not of each file: a
// writer's Close makes its file visible, background syncers fsync it
// (write-behind), and one Sync barrier per set waits for them and
// fsyncs the directory — the group commit of the write path. Whoever
// publishes a set (the server's job commit) calls Sync first.
package shard

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ManifestFile is the reserved name of the shard-set index inside an
// FSSink root. It is not a shard and never appears in Names().
const ManifestFile = "MANIFEST.json"

// tmpPrefix marks in-flight files (uncommitted shards, manifest
// staging); they are invisible to Names/Open and swept on reopen.
const tmpPrefix = ".tmp-"

// validName rejects names that could escape the root or collide with
// the store's own bookkeeping files.
func validName(name string) error {
	switch {
	case name == "":
		return errors.New("shard: empty shard name")
	case name == ManifestFile:
		return fmt.Errorf("shard: %q is reserved", name)
	case strings.HasPrefix(name, tmpPrefix):
		return fmt.Errorf("shard: %q collides with temp-file prefix", name)
	case strings.ContainsAny(name, "/\\") || name == "." || name == "..":
		return fmt.Errorf("shard: name %q must not contain path separators", name)
	}
	return nil
}

// syncWorkers bounds one sink's background fsyncs. Concurrent fsyncs
// share journal commits, which is where the saving over one-at-a-time
// comes from; the bound keeps a large shard set from parking an OS
// thread per file.
const syncWorkers = 16

// Syncer is the optional durability side of a store: Sync returns once
// every object committed so far would survive a power cut. Callers
// type-assert, as with RangeOpener; stores that are not crash-durable
// (MemSink, ParfsSink) do not implement it.
type Syncer interface {
	Sync() error
}

// FSSink stores shards as files under a root directory and satisfies
// Store. Writes are atomic: shards stream into a temp file and are
// linked into place on Close, so a process crash never leaves a partial
// shard visible. Close does NOT make the shard durable — its fsync runs
// behind the writer on a bounded set of background syncers, and Sync is
// the barrier that waits for them (see the package comment).
type FSSink struct {
	root string

	mu      sync.Mutex
	idle    *sync.Cond // signalled when pending reaches zero
	queue   []*fsShard // committed files awaiting their fsync
	pending int        // files queued or being fsynced
	workers int        // running syncer goroutines, <= syncWorkers
	syncErr error      // first fsync failure since the last Sync
	newRoot bool       // root's own directory entry is not yet synced
}

// NewFSSink creates root (and parents) if needed and returns a durable
// store over it.
func NewFSSink(root string) (*FSSink, error) {
	if root == "" {
		return nil, errors.New("shard: empty store root")
	}
	_, statErr := os.Stat(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create store root: %w", err)
	}
	s := &FSSink{root: root, newRoot: os.IsNotExist(statErr)}
	s.idle = sync.NewCond(&s.mu)
	s.sweepTemp()
	return s, nil
}

// Root returns the backing directory.
func (s *FSSink) Root() string { return s.root }

// sweepTemp removes uncommitted temp files left by a crash.
func (s *FSSink) sweepTemp() {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(s.root, e.Name()))
		}
	}
}

type fsShard struct {
	sink  *FSSink
	f     *os.File
	final string
	done  bool
}

func (w *fsShard) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("shard: write after close")
	}
	return w.f.Write(p)
}

// Close commits the shard under its final name and hands the still-open
// file to the sink's syncers. The commit is a link, which unlike rename
// refuses to replace: of two writers racing for one name exactly one
// Close succeeds, and the loser's bytes are discarded.
func (w *fsShard) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	tmp := w.f.Name()
	err := os.Link(tmp, w.final)
	os.Remove(tmp)
	if err != nil {
		w.f.Close()
		if os.IsExist(err) {
			return fmt.Errorf("shard: %q already exists", filepath.Base(w.final))
		}
		return fmt.Errorf("shard: commit %q: %w", w.final, err)
	}
	w.sink.syncBehind(w)
	return nil
}

// syncBehind queues a committed file for its background fsync, starting
// a syncer unless the full set is already running.
func (s *FSSink) syncBehind(w *fsShard) {
	s.mu.Lock()
	s.queue = append(s.queue, w)
	s.pending++
	start := s.workers < syncWorkers
	if start {
		s.workers++
	}
	s.mu.Unlock()
	if start {
		go s.syncLoop()
	}
}

// syncLoop drains the queue and exits when it is empty, so an idle sink
// owns no goroutine; Sync is what waits for the ones in flight.
func (s *FSSink) syncLoop() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		w := s.queue[0]
		s.queue[0] = nil // the slice outlives the writer; don't pin it
		s.queue = s.queue[1:]
		s.mu.Unlock()
		err := w.f.Sync()
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		s.mu.Lock()
		if err != nil && s.syncErr == nil {
			s.syncErr = fmt.Errorf("shard: sync %q: %w", w.final, err)
		}
		if s.pending--; s.pending == 0 {
			s.idle.Broadcast()
		}
	}
	s.workers--
	s.mu.Unlock()
}

// Sync implements Syncer: it waits until every file committed so far is
// fsynced, then fsyncs the root directory (and, the first time, the
// parent that holds a root this sink created) so the files' names are
// as durable as their bytes. A failed background fsync surfaces here,
// once. Files still being written are not covered — close them first.
func (s *FSSink) Sync() error {
	s.mu.Lock()
	for s.pending > 0 {
		s.idle.Wait()
	}
	err, newRoot := s.syncErr, s.newRoot
	s.syncErr = nil
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := SyncDir(s.root); err != nil {
		return err
	}
	if newRoot {
		if err := SyncDir(filepath.Dir(s.root)); err != nil {
			return err
		}
		s.mu.Lock()
		s.newRoot = false
		s.mu.Unlock()
	}
	return nil
}

// SyncDir fsyncs a directory, making the creations, links and renames
// inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("shard: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard: sync dir %s: %w", dir, err)
	}
	return nil
}

// Create implements Sink: the shard becomes visible only on Close,
// which is also where a name that is already taken is refused.
func (s *FSSink) Create(name string) (io.WriteCloser, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(s.root, tmpPrefix+name+"-*")
	if err != nil {
		return nil, fmt.Errorf("shard: create %q: %w", name, err)
	}
	return &fsShard{sink: s, f: f, final: filepath.Join(s.root, name)}, nil
}

// Open implements Opener.
func (s *FSSink) Open(name string) (io.ReadCloser, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.root, name))
	if err != nil {
		return nil, fmt.Errorf("shard: %q not found: %w", name, err)
	}
	return f, nil
}

// OpenRange implements RangeOpener: an os.File is already an
// io.ReaderAt, so range reads map straight to pread.
func (s *FSSink) OpenRange(name string) (ReaderAtCloser, int64, error) {
	if err := validName(name); err != nil {
		return nil, 0, err
	}
	f, err := os.Open(filepath.Join(s.root, name))
	if err != nil {
		return nil, 0, fmt.Errorf("shard: %q not found: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("shard: stat %q: %w", name, err)
	}
	return f, fi.Size(), nil
}

// Names lists committed shard files, sorted. The manifest and temp
// files are excluded.
func (s *FSSink) Names() []string {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || n == ManifestFile || strings.HasPrefix(n, tmpPrefix) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns a shard's stored byte size (0 if absent).
func (s *FSSink) Size(name string) int64 {
	if validName(name) != nil {
		return 0
	}
	fi, err := os.Stat(filepath.Join(s.root, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Remove deletes one committed object, freeing its name for a new
// Create — how a damaged object is replaced.
func (s *FSSink) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	return os.Remove(filepath.Join(s.root, name))
}

// WriteManifest atomically and durably replaces the store's
// MANIFEST.json: the encoded manifest is staged in a temp file, synced,
// renamed over the old one, and the directory is synced, so a
// concurrent or post-crash reader sees either the previous complete
// manifest or the new one — never a prefix. It does not cover the
// shards the manifest names; Sync before publishing them.
func (s *FSSink) WriteManifest(m *Manifest) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.root, tmpPrefix+"manifest-*")
	if err != nil {
		return fmt.Errorf("shard: stage manifest: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(append(b, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.root, ManifestFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: commit manifest: %w", err)
	}
	return SyncDir(s.root)
}

// LoadManifest reads the committed MANIFEST.json.
func (s *FSSink) LoadManifest() (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(s.root, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("shard: load manifest: %w", err)
	}
	return DecodeManifest(b)
}

// Destroy deletes the store root and everything under it — the
// eviction path for expired job shard sets.
func (s *FSSink) Destroy() error {
	return os.RemoveAll(s.root)
}

// StripedFS is the surface ParfsSink needs from a parallel-filesystem
// simulation. *parfs.FS satisfies it; the indirection exists because
// parfs's own tests exercise shard writers, so shard cannot import
// parfs without a test-build cycle.
type StripedFS interface {
	Create(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
	List() []string
	Size(name string) int64
}

// ParfsSink adapts a simulated striped parallel filesystem to Store:
// every shard write and read is striped across OSTs and charged
// bandwidth + latency, so benchmarks over this sink expose the stripe
// contention the paper's C1 scaling claim is about.
type ParfsSink struct {
	FS StripedFS
}

// NewParfsSink wraps a striped filesystem as a shard store.
func NewParfsSink(fs StripedFS) ParfsSink { return ParfsSink{FS: fs} }

// Create implements Sink.
func (p ParfsSink) Create(name string) (io.WriteCloser, error) { return p.FS.Create(name) }

// Open implements Opener.
func (p ParfsSink) Open(name string) (io.ReadCloser, error) { return p.FS.Open(name) }

// Names lists stored shard names, sorted.
func (p ParfsSink) Names() []string { return p.FS.List() }

// Size returns a shard's stored byte size (0 if absent).
func (p ParfsSink) Size(name string) int64 { return p.FS.Size(name) }

// stripedRangeFS is the optional random-access extension of StripedFS.
// *parfs.FS satisfies it with stripe-accurate accounting: a range read
// charges only the OSTs whose stripes the range covers.
type stripedRangeFS interface {
	ReadAt(name string, p []byte, off int64) (int, error)
}

// parfsRange adapts a striped filesystem's named ReadAt to io.ReaderAt.
type parfsRange struct {
	fs   stripedRangeFS
	name string
}

func (r parfsRange) ReadAt(p []byte, off int64) (int, error) { return r.fs.ReadAt(r.name, p, off) }
func (r parfsRange) Close() error                            { return nil }

// OpenRange implements RangeOpener when the underlying striped
// filesystem supports range reads.
func (p ParfsSink) OpenRange(name string) (ReaderAtCloser, int64, error) {
	rfs, ok := p.FS.(stripedRangeFS)
	if !ok {
		return nil, 0, fmt.Errorf("shard: %T supports no range reads", p.FS)
	}
	size := p.FS.Size(name)
	if size == 0 {
		return nil, 0, fmt.Errorf("shard: %q not found", name)
	}
	return parfsRange{fs: rfs, name: name}, size, nil
}

// Interface conformance.
var (
	_ Store       = (*MemSink)(nil)
	_ Store       = (*FSSink)(nil)
	_ Store       = ParfsSink{}
	_ RangeOpener = (*MemSink)(nil)
	_ RangeOpener = (*FSSink)(nil)
	_ RangeOpener = ParfsSink{}
	_ Syncer      = (*FSSink)(nil)
)
