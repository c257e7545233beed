// Package parfs simulates a striped parallel filesystem (a Lustre/GPFS
// stand-in). The paper's scale argument (§1: >10 TB training sets require
// "high-throughput, parallel file I/O") needs a substrate where striping,
// per-target bandwidth, and contention are observable on one node: files
// are striped round-robin across OSTs (object storage targets); each OST
// serializes its I/O and charges latency + bytes/bandwidth per chunk, so
// concurrent writers to disjoint OSTs overlap while same-OST traffic
// contends — exactly the behaviour that makes parallel sharding scale
// until the stripe width saturates.
package parfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"sort"
	"sync"
	"time"
)

// Config sizes the simulated filesystem.
type Config struct {
	// OSTs is the number of object storage targets (>=1).
	OSTs int
	// StripeSize is the chunk size in bytes distributed round-robin.
	StripeSize int
	// BandwidthMBps is each OST's throughput in MiB/s.
	BandwidthMBps float64
	// LatencyMicros is the fixed per-chunk overhead in microseconds.
	LatencyMicros int
}

// DefaultConfig models a small burst-buffer-class system scaled down so
// benchmarks finish quickly: 8 OSTs, 1 MiB stripes, 4 GiB/s per OST.
func DefaultConfig() Config {
	return Config{OSTs: 8, StripeSize: 1 << 20, BandwidthMBps: 4096, LatencyMicros: 50}
}

func (c Config) validate() error {
	if c.OSTs < 1 {
		return fmt.Errorf("parfs: OSTs=%d must be >=1", c.OSTs)
	}
	if c.StripeSize < 1 {
		return fmt.Errorf("parfs: stripe size %d must be >=1", c.StripeSize)
	}
	if c.BandwidthMBps <= 0 {
		return fmt.Errorf("parfs: bandwidth %v must be positive", c.BandwidthMBps)
	}
	if c.LatencyMicros < 0 {
		return fmt.Errorf("parfs: negative latency %d", c.LatencyMicros)
	}
	return nil
}

// ost is one storage target: a mutex (serializing its service time) plus
// accounting.
type ost struct {
	mu    sync.Mutex
	busy  time.Duration
	ops   int64
	bytes int64
}

// FS is the simulated filesystem.
type FS struct {
	cfg   Config
	osts  []*ost
	mu    sync.Mutex
	files map[string]*file
	// sleep is the delay primitive; tests may replace it to make timing
	// assertions deterministic.
	sleep func(time.Duration)
}

type file struct {
	mu   sync.Mutex
	data []byte
}

// New creates a filesystem from the config.
func New(cfg Config) (*FS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fs := &FS{cfg: cfg, files: make(map[string]*file), sleep: time.Sleep}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, &ost{})
	}
	return fs, nil
}

// SetSleep replaces the delay primitive (testing hook).
func (fs *FS) SetSleep(f func(time.Duration)) { fs.sleep = f }

// chunkCost returns the simulated service time for n bytes on one OST.
func (fs *FS) chunkCost(n int) time.Duration {
	bw := fs.cfg.BandwidthMBps * 1024 * 1024 // bytes/sec
	transfer := time.Duration(float64(n) / bw * float64(time.Second))
	return transfer + time.Duration(fs.cfg.LatencyMicros)*time.Microsecond
}

// ostFor picks the OST serving stripe index k of a file, offsetting by a
// name hash so files start on different targets (as Lustre does).
func (fs *FS) ostFor(name string, k int) *ost {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return fs.osts[(h+k)%len(fs.osts)]
}

// WriteFile stores data under name, striping across OSTs and charging
// simulated I/O time. Existing files are overwritten.
func (fs *FS) WriteFile(name string, data []byte) error {
	if name == "" {
		return errors.New("parfs: empty file name")
	}
	fs.mu.Lock()
	f, ok := fs.files[name]
	if !ok {
		f = &file{}
		fs.files[name] = f
	}
	fs.mu.Unlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[:0]
	for k, off := 0, 0; off < len(data) || (len(data) == 0 && k == 0); k++ {
		end := off + fs.cfg.StripeSize
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		fs.charge(fs.ostFor(name, k), len(chunk))
		f.data = append(f.data, chunk...)
		off = end
		if len(data) == 0 {
			break
		}
	}
	return nil
}

// charge occupies the OST for the chunk's service time.
func (fs *FS) charge(o *ost, n int) {
	cost := fs.chunkCost(n)
	o.mu.Lock()
	o.busy += cost
	o.ops++
	o.bytes += int64(n)
	fs.sleep(cost)
	o.mu.Unlock()
}

// ReadFile retrieves a file, charging read I/O symmetrical to writes.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("parfs: %q not found: %w", name, iofs.ErrNotExist)
	}
	f.mu.Lock()
	data := append([]byte(nil), f.data...)
	f.mu.Unlock()
	for k, off := 0, 0; off < len(data); k++ {
		end := off + fs.cfg.StripeSize
		if end > len(data) {
			end = len(data)
		}
		fs.charge(fs.ostFor(name, k), end-off)
		off = end
	}
	return data, nil
}

// Exists reports whether a file is present.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// List returns the stored file names, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats aggregates per-OST accounting.
type Stats struct {
	Ops      int64
	Bytes    int64
	BusyTime time.Duration
	// MaxOSTBusy is the busiest single OST's time: the critical path of a
	// perfectly parallel workload.
	MaxOSTBusy time.Duration
}

// Stats returns accumulated I/O accounting.
func (fs *FS) Stats() Stats {
	var s Stats
	for _, o := range fs.osts {
		o.mu.Lock()
		s.Ops += o.ops
		s.Bytes += o.bytes
		s.BusyTime += o.busy
		if o.busy > s.MaxOSTBusy {
			s.MaxOSTBusy = o.busy
		}
		o.mu.Unlock()
	}
	return s
}

// --- shard.Sink / shard.Opener adapters -------------------------------------

// writeCloser buffers a shard then commits it to the FS on Close, charging
// the simulated write cost once (shards are written streaming in practice,
// but committing at close keeps partially-written shards invisible, the
// same effect as write-then-rename).
type writeCloser struct {
	fs   *FS
	name string
	buf  bytes.Buffer
	done bool
}

func (w *writeCloser) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("parfs: write after close")
	}
	return w.buf.Write(p)
}

func (w *writeCloser) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	return w.fs.WriteFile(w.name, w.buf.Bytes())
}

// Create implements shard.Sink.
func (fs *FS) Create(name string) (io.WriteCloser, error) {
	if name == "" {
		return nil, errors.New("parfs: empty shard name")
	}
	if fs.Exists(name) {
		return nil, fmt.Errorf("parfs: %q already exists", name)
	}
	return &writeCloser{fs: fs, name: name}, nil
}

// Open implements shard.Opener.
func (fs *FS) Open(name string) (io.ReadCloser, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}
