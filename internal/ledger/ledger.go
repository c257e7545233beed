// Package ledger is draid's tamper-evident audit log: an append-only
// NDJSON file of security-relevant events (job submissions, stream
// opens, evictions, auth failures) where every record is hash-chained
// to its predecessor and records are grouped into fixed-size Merkle
// batches whose roots are published for offline verification. The
// write path uses group commit: appenders share one fsync per batch
// window instead of paying one each, which is what keeps the audit
// trail off the submit hot path: 64 concurrent appends cost a handful
// of fsyncs, not 64.
//
// Durability contract: Append returns only after the record's bytes
// are fsynced, by its own group's commit. A crash mid-append leaves a
// torn final line that Open truncates; any other chain damage — a
// reordered, edited, or deleted record — fails Open with a chain-break
// error, because every record's hash covers its predecessor's.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Audit record types.
const (
	TypeSubmit      = "submit"       // job accepted into a queue
	TypeStream      = "stream"       // batch stream opened against a job
	TypeEvict       = "evict"        // retention deleted a job's shards
	TypeAuthFailure = "auth_failure" // request rejected by token auth
)

// Record is one line of the audit log. Hash is the SHA-256 of the
// record's canonical JSON with Hash itself empty, so the stored line
// self-certifies; Prev chains it to the preceding record (empty on the
// first record).
type Record struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	Tenant string    `json:"tenant,omitempty"`
	Job    string    `json:"job,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Node   string    `json:"node,omitempty"`
	Prev   string    `json:"prev,omitempty"`
	Hash   string    `json:"hash"`
}

// HashRecord computes the hash a record must carry: SHA-256 over the
// record's JSON with the Hash field cleared. Exported so offline
// verifiers can re-derive the chain from a downloaded log.
func HashRecord(rec Record) string {
	rec.Hash = ""
	b, _ := json.Marshal(rec)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BatchRoot is one published Merkle root: the root over the record
// hashes of batch Batch (records [FirstSeq, LastSeq]). Batches are
// deterministic — batch k covers seqs [k*size+1, (k+1)*size] — so a
// replayed ledger recomputes identical roots. The final batch is
// unsealed until it fills; its provisional root still verifies
// proofs for the records it already holds.
type BatchRoot struct {
	Batch    int    `json:"batch"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Records  int    `json:"records"`
	Root     string `json:"root"`
	Sealed   bool   `json:"sealed"`
}

// Config tunes a Ledger.
type Config struct {
	// Path is the NDJSON audit log file.
	Path string
	// Node stamps records with the fleet member writing them.
	Node string
	// BatchSize is records per Merkle batch (<=0 means 64). Also the
	// group-commit ceiling: a batch's worth of pending appends forces a
	// sync even inside the coalescing window.
	BatchSize int
	// FlushWait is the group-commit coalescing window: the first
	// appender of a group waits this long for followers before syncing
	// once for all of them (<0 disables waiting; 0 means 2ms).
	FlushWait time.Duration
}

// Ledger is an open audit log. Safe for concurrent appenders.
type Ledger struct {
	cfg Config

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     uint64
	prev    string   // hash of the last appended record
	records []Record // full history, for proofs and tenant checks
	hashes  [][]byte // raw record hashes (Merkle leaves)
	sealed  []string // cached roots of full batches
	group   *syncGroup
	closed  bool

	// Counters for /metrics. Atomics, not mu: a group leader holds mu
	// across its fsync, and a scrape must never wait for a disk.
	nAppends atomic.Int64
	nSyncs   atomic.Int64
	nBytes   atomic.Int64
}

// syncGroup is one group commit in flight: followers wait on done and
// read err, which the leader writes before closing the channel.
type syncGroup struct {
	done chan struct{}
	err  error
}

// Open opens (or creates) the audit log at cfg.Path, replaying and
// verifying the existing chain. A torn final line (crash mid-append)
// is truncated away; any interior damage or hash mismatch is a
// chain-break error — the ledger refuses to extend a history it
// cannot certify.
func Open(cfg Config) (*Ledger, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlushWait == 0 {
		cfg.FlushWait = 2 * time.Millisecond
	}
	l := &Ledger{cfg: cfg}
	if err := l.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", cfg.Path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return l, nil
}

// replay loads and verifies the existing log. Offsets are tracked per
// line so a torn tail can be truncated to the last committed record.
func (l *Ledger) replay() error {
	b, err := os.ReadFile(l.cfg.Path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ledger: read %s: %w", l.cfg.Path, err)
	}
	good := int64(0) // offset just past the last verified record
	off := int64(0)
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		line := b
		torn := nl < 0 // no newline: the append was cut mid-write
		if !torn {
			line = b[:nl]
			b = b[nl+1:]
		} else {
			b = nil
		}
		lineLen := int64(len(line))
		if !torn {
			lineLen++
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off += lineLen
			if !torn {
				good = off
			}
			continue
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			if torn || len(b) == 0 {
				break // torn tail: truncate below
			}
			return fmt.Errorf("ledger: %s: unparsable record after seq %d (chain broken)", l.cfg.Path, l.seq)
		}
		if rec.Seq != l.seq+1 || rec.Prev != l.prev || HashRecord(rec) != rec.Hash {
			if torn {
				break
			}
			return fmt.Errorf("ledger: %s: hash chain broken at seq %d", l.cfg.Path, rec.Seq)
		}
		if torn {
			// Even a fully parsable tail without its newline never
			// completed its fsync (line and terminator are written as one
			// buffer), so its Append never returned success. Drop it: a
			// record either committed fully or never happened.
			break
		}
		l.seq = rec.Seq
		l.prev = rec.Hash
		l.records = append(l.records, rec)
		raw, derr := hex.DecodeString(rec.Hash)
		if derr != nil {
			return fmt.Errorf("ledger: %s: bad hash encoding at seq %d", l.cfg.Path, rec.Seq)
		}
		l.hashes = append(l.hashes, raw)
		off += lineLen
		good = off
	}
	if fi, serr := os.Stat(l.cfg.Path); serr == nil && fi.Size() > good {
		if terr := os.Truncate(l.cfg.Path, good); terr != nil {
			return fmt.Errorf("ledger: truncate torn tail of %s: %w", l.cfg.Path, terr)
		}
	}
	// Seal the roots of every full batch up front so Roots and Prove
	// never recompute them.
	for batch := 0; (batch+1)*l.cfg.BatchSize <= len(l.hashes); batch++ {
		l.sealed = append(l.sealed, hex.EncodeToString(
			merkleRoot(l.hashes[batch*l.cfg.BatchSize:(batch+1)*l.cfg.BatchSize])))
	}
	return nil
}

// Append commits one audit record, returning it with its assigned
// sequence number and chain hash once it is durable on disk.
func (l *Ledger) Append(typ, tenant, job, detail string) (Record, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Record{}, fmt.Errorf("ledger: closed")
	}
	rec := Record{
		Seq: l.seq + 1, Time: time.Now().UTC(), Type: typ,
		Tenant: tenant, Job: job, Detail: detail, Node: l.cfg.Node,
		Prev: l.prev,
	}
	rec.Hash = HashRecord(rec)
	b, err := json.Marshal(rec)
	if err != nil {
		l.mu.Unlock()
		return Record{}, fmt.Errorf("ledger: encode record: %w", err)
	}
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		l.mu.Unlock()
		return Record{}, fmt.Errorf("ledger: append: %w", err)
	}
	l.seq = rec.Seq
	l.prev = rec.Hash
	l.records = append(l.records, rec)
	raw, _ := hex.DecodeString(rec.Hash)
	l.hashes = append(l.hashes, raw)
	if len(l.hashes)%l.cfg.BatchSize == 0 {
		batch := len(l.hashes)/l.cfg.BatchSize - 1
		l.sealed = append(l.sealed, hex.EncodeToString(
			merkleRoot(l.hashes[batch*l.cfg.BatchSize:])))
	}
	l.nAppends.Add(1)
	l.nBytes.Add(int64(len(b) + 1))

	if g := l.group; g != nil {
		// A leader is already coalescing: ride its fsync.
		l.mu.Unlock()
		<-g.done
		return rec, g.err
	}
	// Become the leader: give followers a short window to pile their
	// records into this group's single fsync, then commit for everyone.
	g := &syncGroup{done: make(chan struct{})}
	l.group = g
	l.mu.Unlock()
	if l.cfg.FlushWait > 0 {
		time.Sleep(l.cfg.FlushWait)
	}
	l.mu.Lock()
	l.group = nil
	g.err = l.syncLocked()
	l.mu.Unlock()
	close(g.done)
	return rec, g.err
}

// syncLocked flushes buffered lines and fsyncs. Caller holds mu.
func (l *Ledger) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: fsync: %w", err)
	}
	l.nSyncs.Add(1)
	return nil
}

// Len reports how many records the ledger holds.
func (l *Ledger) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Roots returns every batch root: sealed roots for full batches plus
// the provisional root of the open tail batch (if any records are in
// it). This is the document /v1/audit/roots publishes.
func (l *Ledger) Roots() []BatchRoot {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.cfg.BatchSize
	out := make([]BatchRoot, 0, len(l.sealed)+1)
	for i, root := range l.sealed {
		out = append(out, BatchRoot{
			Batch: i, FirstSeq: uint64(i*size) + 1, LastSeq: uint64((i + 1) * size),
			Records: size, Root: root, Sealed: true,
		})
	}
	if tail := len(l.hashes) % size; tail > 0 {
		batch := len(l.hashes) / size
		out = append(out, BatchRoot{
			Batch: batch, FirstSeq: uint64(batch*size) + 1, LastSeq: uint64(len(l.hashes)),
			Records: tail, Root: hex.EncodeToString(merkleRoot(l.hashes[batch*size:])),
			Sealed: false,
		})
	}
	return out
}

// Record returns the record at seq (1-based).
func (l *Ledger) Record(seq uint64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 1 || seq > uint64(len(l.records)) {
		return Record{}, false
	}
	return l.records[seq-1], true
}

// Prove builds the Merkle inclusion proof for the record at seq
// against its batch's root (sealed, or the open batch's provisional
// root). Verify offline with Proof.Verify plus a published root.
func (l *Ledger) Prove(seq uint64) (*Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 1 || seq > uint64(len(l.hashes)) {
		return nil, fmt.Errorf("ledger: no record with seq %d", seq)
	}
	size := l.cfg.BatchSize
	idx := int(seq - 1)
	batch := idx / size
	lo := batch * size
	hi := lo + size
	if hi > len(l.hashes) {
		hi = len(l.hashes)
	}
	leaves := l.hashes[lo:hi]
	path := merkleProof(leaves, idx-lo)
	steps := make([]ProofStep, len(path))
	for i, st := range path {
		steps[i] = ProofStep{Hash: hex.EncodeToString(st.hash), Left: st.left}
	}
	return &Proof{
		Seq:    seq,
		Batch:  batch,
		Record: l.records[idx],
		Path:   steps,
		Root:   hex.EncodeToString(merkleRoot(leaves)),
	}, nil
}

// Stats is a point-in-time counter snapshot for /metrics.
type Stats struct {
	Records int64 // records appended this process (replayed ones excluded)
	Syncs   int64 // fsyncs issued (group commits count once)
	Bytes   int64 // record bytes written this process
}

// Stats snapshots the ledger's write counters without taking the
// ledger's lock (each counter is read on its own, so a snapshot taken
// mid-append may count a record whose bytes it does not yet).
func (l *Ledger) Stats() Stats {
	return Stats{Records: l.nAppends.Load(), Syncs: l.nSyncs.Load(), Bytes: l.nBytes.Load()}
}

// Close flushes, fsyncs, and closes the log file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
