// Package ledger is draid's tamper-evident audit log: an append-only
// NDJSON file of security-relevant events (job submissions, stream
// opens, evictions, auth failures) where every record is hash-chained
// to its predecessor and records are grouped into fixed-size Merkle
// batches whose roots are published for offline verification. The
// write path uses group commit with no timer: a lone appender syncs at
// once, and the records that arrive while a sync is in flight share
// the next one, so 64 concurrent appends cost a handful of fsyncs, not
// 64, and an idle ledger adds no wait to its one fsync.
//
// Durability contract: Append returns only after the record's bytes
// are fsynced, by its own group's commit, and the read side (Len,
// Record, Prove, Roots) serves only records already fsynced. A failed
// write or fsync is sticky: every later Append returns it and the file
// is never written again. A crash mid-append leaves a torn final line
// that Open truncates; any other chain damage — a reordered, edited,
// or deleted record — fails Open with a chain-break error, because
// every record's hash covers its predecessor's.
package ledger

import (
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
	// BatchSize is records per Merkle batch (<=0 means 64).
	BatchSize int
}

// Ledger is an open audit log. Safe for concurrent appenders.
//
// Appends are group-committed without a timer. Under mu an appender
// assigns its record's seq and chain hash and adds the encoded line to
// pending. If no sync is in flight it leads: it takes pending, releases
// mu, writes and fsyncs the group, then re-takes mu to advance durable
// and wake the waiters. Lines that arrive meanwhile accumulate in
// pending and form the next group, led by the first of their waiters to
// see the file idle. mu is never held across I/O, so a reader never
// waits on the disk; and one leader at a time keeps file order equal to
// seq order.
type Ledger struct {
	cfg Config

	mu      sync.Mutex
	synced  sync.Cond // on mu; broadcast whenever a group sync ends
	f       *os.File
	seq     uint64   // last assigned seq
	prev    string   // hash of the last assigned record
	records []Record // every assigned record, for proofs and tenant checks
	hashes  [][]byte // raw record hashes (Merkle leaves)
	sealed  []string // cached roots of full batches
	pending []byte   // encoded lines assigned but not yet handed to a leader
	durable uint64   // committed-seq watermark: records up to it are fsynced
	syncing bool     // a leader is writing and fsyncing a group outside mu
	err     error    // first failed write or fsync; the file is never written again
	closed  bool

	// Counters for /metrics. Atomics, not mu: a scrape never contends
	// with appenders for the lock.
	nAppends atomic.Int64
	nSyncs   atomic.Int64
	nBytes   atomic.Int64
}

// fsync is (*os.File).Sync behind a variable so the group-commit tests
// can hold a sync in flight.
var fsync = (*os.File).Sync

// Open opens (or creates) the audit log at cfg.Path, replaying and
// verifying the existing chain. A torn final line (crash mid-append)
// is truncated away; any interior damage or hash mismatch is a
// chain-break error — the ledger refuses to extend a history it
// cannot certify.
func Open(cfg Config) (*Ledger, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	l := &Ledger{cfg: cfg}
	l.synced.L = &l.mu
	if err := l.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", cfg.Path, err)
	}
	l.f = f
	l.durable = l.seq
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
// sequence number and chain hash once it is durable on disk. After a
// failed commit every Append returns that failure without assigning a
// seq: a group that failed mid-write may have left a partial line, and
// only a reopen (which truncates it) may extend the file again.
func (l *Ledger) Append(typ, tenant, job, detail string) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, fmt.Errorf("ledger: closed")
	}
	if l.err != nil {
		return Record{}, l.err
	}
	rec := Record{
		Seq: l.seq + 1, Time: time.Now().UTC(), Type: typ,
		Tenant: tenant, Job: job, Detail: detail, Node: l.cfg.Node,
		Prev: l.prev,
	}
	rec.Hash = HashRecord(rec)
	b, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("ledger: encode record: %w", err)
	}
	l.pending = append(append(l.pending, b...), '\n')
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
	for l.durable < rec.Seq && l.err == nil {
		if l.syncing {
			l.synced.Wait()
		} else {
			l.commitLocked()
		}
	}
	if l.durable < rec.Seq {
		return Record{}, l.err
	}
	return rec, nil
}

// commitLocked leads one group: it takes every pending line, writes
// and fsyncs them with mu released, then advances durable (or stores
// the failure) and wakes the waiters. Caller holds mu, no sync is in
// flight, and l.err is nil.
func (l *Ledger) commitLocked() {
	buf, upto, f := l.pending, l.seq, l.f
	l.pending = nil
	l.syncing = true
	l.mu.Unlock()
	_, err := f.Write(buf)
	if err != nil {
		err = fmt.Errorf("ledger: append: %w", err)
	} else if err = fsync(f); err != nil {
		err = fmt.Errorf("ledger: fsync: %w", err)
	}
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.err = err
	} else {
		l.nAppends.Add(int64(upto - l.durable))
		l.nBytes.Add(int64(len(buf)))
		l.nSyncs.Add(1)
		l.durable = upto
	}
	l.synced.Broadcast()
}

// The read side serves records only up to durable: a record, proof or
// root a caller sees is on disk, so a restarted node recomputes the
// same roots it published.

// Len reports how many durable records the ledger holds.
func (l *Ledger) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Roots returns every batch root: sealed roots for full batches plus
// the provisional root of the open tail batch (if any records are in
// it). This is the document /v1/audit/roots publishes.
func (l *Ledger) Roots() []BatchRoot {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.cfg.BatchSize
	n := int(l.durable)
	out := make([]BatchRoot, 0, n/size+1)
	for i, root := range l.sealed[:n/size] {
		out = append(out, BatchRoot{
			Batch: i, FirstSeq: uint64(i*size) + 1, LastSeq: uint64((i + 1) * size),
			Records: size, Root: root, Sealed: true,
		})
	}
	if tail := n % size; tail > 0 {
		batch := n / size
		out = append(out, BatchRoot{
			Batch: batch, FirstSeq: uint64(batch*size) + 1, LastSeq: uint64(n),
			Records: tail, Root: hex.EncodeToString(merkleRoot(l.hashes[batch*size : n])),
			Sealed: false,
		})
	}
	return out
}

// Record returns the durable record at seq (1-based).
func (l *Ledger) Record(seq uint64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 1 || seq > l.durable {
		return Record{}, false
	}
	return l.records[seq-1], true
}

// Prove builds the Merkle inclusion proof for the durable record at
// seq against its batch's root (sealed, or the open batch's
// provisional root). Verify offline with Proof.Verify plus a published
// root.
func (l *Ledger) Prove(seq uint64) (*Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 1 || seq > l.durable {
		return nil, fmt.Errorf("ledger: no record with seq %d", seq)
	}
	size := l.cfg.BatchSize
	idx := int(seq - 1)
	batch := idx / size
	lo := batch * size
	hi := min(lo+size, int(l.durable))
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
	Records int64 // records made durable this process (replayed ones excluded)
	Syncs   int64 // successful fsyncs (one per group commit)
	Bytes   int64 // record bytes made durable this process
}

// Stats snapshots the ledger's write counters without taking the
// ledger's lock (each counter is read on its own, so a snapshot taken
// mid-commit may count a group's records but not yet its sync).
func (l *Ledger) Stats() Stats {
	return Stats{Records: l.nAppends.Load(), Syncs: l.nSyncs.Load(), Bytes: l.nBytes.Load()}
}

// Close waits for an in-flight group sync, commits whatever is still
// pending, and closes the log file. It returns the ledger's sticky
// commit failure, if any.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.syncing {
		l.synced.Wait()
	}
	if l.err == nil && l.durable < l.seq {
		l.commitLocked()
	}
	err := l.err
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
