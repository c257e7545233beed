// Package ledger is draid's tamper-evident audit log: an append-only
// NDJSON file of security-relevant events (job submissions, stream
// opens, evictions, auth failures) where every record is hash-chained
// to its predecessor and records are grouped into fixed-size Merkle
// batches whose roots are published for offline verification. The file
// is an internal/wal log: group-committed, sticky on failure, torn tail
// truncated on open. Reads serve only fsynced records, so a restarted
// node recomputes the roots it published; any other chain damage — a
// reordered, edited, or deleted record — fails Open.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/wal"
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

// Ledger is an open audit log, safe for concurrent appenders. Under mu
// an appender assigns its record's seq and hash and adds its line to the
// WAL, so file order is seq order; it waits for the commit with mu
// released, so a reader never waits on the disk.
type Ledger struct {
	cfg Config
	w   *wal.Log

	mu      sync.Mutex
	seq     uint64   // last assigned seq
	durable uint64   // committed-seq watermark: records up to it are fsynced
	prev    string   // hash of the last assigned record
	records []Record // every assigned record, for proofs and tenant checks
	hashes  [][]byte // raw record hashes (Merkle leaves)
	sealed  []string // cached roots of full batches
}

// Open opens (or creates) the audit log at cfg.Path, replaying and
// verifying the existing chain. Damage other than a torn tail is a
// chain-break error: the ledger refuses to extend a history it cannot
// certify.
func Open(cfg Config) (*Ledger, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	l := &Ledger{cfg: cfg}
	w, err := wal.Open(cfg.Path, l.replay)
	if err != nil {
		return nil, err
	}
	l.w, l.durable = w, l.seq
	return l, nil
}

// replay verifies one complete line of the existing log and extends the
// chain with it. Blank lines are skipped.
func (l *Ledger) replay(line []byte) error {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	var rec Record
	if json.Unmarshal(line, &rec) != nil {
		return fmt.Errorf("ledger: %s: unparsable record after seq %d (chain broken)", l.cfg.Path, l.seq)
	}
	if rec.Seq != l.seq+1 || rec.Prev != l.prev || HashRecord(rec) != rec.Hash {
		return fmt.Errorf("ledger: %s: hash chain broken at seq %d", l.cfg.Path, rec.Seq)
	}
	l.extend(rec)
	return nil
}

// extend links rec onto the chain and seals its batch's root when rec
// fills it, so Roots and Prove never recompute a sealed root.
func (l *Ledger) extend(rec Record) {
	raw, _ := hex.DecodeString(rec.Hash) // HashRecord's hex: it decodes
	l.seq, l.prev = rec.Seq, rec.Hash
	l.records = append(l.records, rec)
	l.hashes = append(l.hashes, raw)
	if size := l.cfg.BatchSize; len(l.hashes)%size == 0 {
		l.sealed = append(l.sealed, hex.EncodeToString(merkleRoot(l.hashes[len(l.hashes)-size:])))
	}
}

// Append commits one audit record, returning it with its assigned
// sequence number and chain hash once it is durable on disk. After a
// failed commit every Append returns that failure without assigning a
// seq.
func (l *Ledger) Append(typ, tenant, job, detail string) (Record, error) {
	l.mu.Lock()
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
	n, err := l.w.Add(b)
	if err != nil {
		l.mu.Unlock()
		return Record{}, err
	}
	l.extend(rec)
	l.mu.Unlock()
	if err := l.w.Wait(n); err != nil {
		return Record{}, err
	}
	// The WAL commits in Add order, so every lower seq is durable too.
	l.mu.Lock()
	l.durable = max(l.durable, rec.Seq)
	l.mu.Unlock()
	return rec, nil
}

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
	path, root := merkleProof(leaves, idx-lo)
	steps := make([]ProofStep, len(path))
	for i, st := range path {
		steps[i] = ProofStep{Hash: hex.EncodeToString(st.hash), Left: st.left}
	}
	return &Proof{
		Seq:    seq,
		Batch:  batch,
		Record: l.records[idx],
		Path:   steps,
		Root:   hex.EncodeToString(root),
	}, nil
}

// Stats is the audit log's write counters for /metrics.
type Stats = wal.Stats

// Stats snapshots the write counters without taking the ledger's lock.
func (l *Ledger) Stats() Stats { return l.w.Stats() }

// Err returns the log's sticky commit failure, or nil.
func (l *Ledger) Err() error { return l.w.Err() }

// Close commits whatever is pending and closes the log, returning its
// sticky commit failure, if any.
func (l *Ledger) Close() error { return l.w.Close() }
