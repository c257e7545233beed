// Package ledger is a node's one log, tamper-evident: an append-only
// NDJSON file of job records and security events, each hash-chained to
// its predecessor and grouped into fixed-size Merkle batches whose roots
// are published for offline verification. A job record's line carries a
// body whose SHA-256 is in the header; the chain hash and Merkle leaf
// cover the header only, so a proof certifies a record without
// revealing its body. The file is an internal/wal log: group-committed,
// sticky on failure, torn tail truncated on open. Reads serve only
// fsynced records, so a restarted node recomputes the roots it
// published; any other damage — a reordered, edited or deleted record,
// or a body that does not match its digest — fails Open.
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

// Record types. The first five are a job's lifecycle: the server
// rebuilds its jobs from their bodies.
const (
	TypeSubmitted   = "submitted"    // job accepted into a queue
	TypeDone        = "done"         // job finished and committed
	TypeFailed      = "failed"       // job errored, or was lost to a restart
	TypeEvicted     = "evicted"      // retention deleted a job's shards
	TypeEvent       = "event"        // timeline-only transition (adoption, requeue)
	TypeStream      = "stream"       // batch stream opened against a job
	TypeAuthFailure = "auth_failure" // request rejected by token auth
)

// Record is the header of one line of the log. Hash is the SHA-256 of
// the header's canonical JSON with Hash itself empty, so the stored
// line self-certifies; Prev chains it to the preceding record (empty on
// the first record). BodyHash is the SHA-256 of the line's body, empty
// when it has none.
type Record struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Type     string    `json:"type"`
	Tenant   string    `json:"tenant,omitempty"`
	Job      string    `json:"job,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	Node     string    `json:"node,omitempty"`
	BodyHash string    `json:"body_hash,omitempty"`
	Prev     string    `json:"prev,omitempty"`
	Hash     string    `json:"hash"`
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

// hashBody is the BodyHash of body: empty for no body.
func hashBody(body []byte) string {
	if len(body) == 0 {
		return ""
	}
	sum := sha256.Sum256(body)
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
	// Path is the NDJSON log file.
	Path string
	// Node stamps records with the fleet member writing them.
	Node string
	// BatchSize is records per Merkle batch (<=0 means 64).
	BatchSize int
	// Replay, if set, gets each record Open verifies, in file order, and
	// its body (nil for none; the caller's to keep); its error fails
	// Open. The ledger keeps headers resident, never bodies.
	Replay func(rec Record, body []byte) error
}

// Ledger is an open log, safe for concurrent appenders. Under mu an
// appender assigns its record's seq and hash and adds its line to the
// WAL, so file order is seq order; it waits for the commit with mu
// released, so a reader never waits on the disk.
type Ledger struct {
	cfg    Config
	w      *wal.Log
	opened Tail // the chain as Open replayed it, for Tail

	mu      sync.Mutex
	seq     uint64   // last assigned seq
	durable uint64   // committed-seq watermark: records up to it are fsynced
	prev    string   // hash of the last assigned record
	records []Record // every assigned record's header, for proofs and tenant checks
	hashes  [][]byte // raw record hashes (Merkle leaves)
	sealed  []string // cached roots of full batches
}

// Open opens (or creates) the log at cfg.Path, replaying and verifying
// the existing chain and handing each record to cfg.Replay. Damage
// other than a torn tail is a chain-break error: the ledger refuses to
// extend a history it cannot certify.
func Open(cfg Config) (*Ledger, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	l := &Ledger{cfg: cfg, opened: Tail{path: cfg.Path}}
	w, err := wal.Open(cfg.Path, l.replay)
	if err != nil {
		return nil, err
	}
	l.w, l.durable = w, l.seq
	l.cfg.Replay = nil // Open's alone: holding it would keep what it folded alive
	return l, nil
}

// replay verifies one complete line of the existing log, extends the
// chain with it and hands it to cfg.Replay. Blank lines are skipped.
func (l *Ledger) replay(b []byte) error {
	rec, body, err := l.opened.step(b)
	if err != nil || rec.Seq == 0 {
		return err
	}
	l.extend(rec)
	if l.cfg.Replay != nil {
		return l.cfg.Replay(rec, body)
	}
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

// Append commits one record without a body. See AppendBody.
func (l *Ledger) Append(typ, tenant, job, detail string) (Record, error) {
	return l.AppendBody(typ, tenant, job, detail, nil)
}

// AppendBody commits one record whose line carries body (json.Marshal
// output, so one line; nil for none), returning its header with the
// assigned seq and chain hash once the line is durable. After a failed
// commit every append returns that failure without assigning a seq.
func (l *Ledger) AppendBody(typ, tenant, job, detail string, body []byte) (Record, error) {
	l.mu.Lock()
	rec := Record{
		Seq: l.seq + 1, Time: time.Now().UTC(), Type: typ,
		Tenant: tenant, Job: job, Detail: detail, Node: l.cfg.Node,
		BodyHash: hashBody(body), Prev: l.prev,
	}
	rec.Hash = HashRecord(rec)
	b, err := json.Marshal(rec)
	if err != nil {
		l.mu.Unlock()
		return Record{}, fmt.Errorf("ledger: encode record: %w", err)
	}
	if len(body) > 0 {
		b = append(append(append(b[:len(b)-1], `,"body":`...), body...), '}')
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

// Stats is the log's write counters for /metrics.
type Stats = wal.Stats

// Stats snapshots the write counters without taking the ledger's lock.
func (l *Ledger) Stats() Stats { return l.w.Stats() }

// Err returns the log's sticky commit failure, or nil.
func (l *Ledger) Err() error { return l.w.Err() }

// Close commits whatever is pending and closes the log, returning its
// sticky commit failure, if any.
func (l *Ledger) Close() error { return l.w.Close() }

// Tail follows a ledger file's chain read-only — another member's live
// log, or this node's through a second handle: each Next verifies and
// yields only the records appended since the previous one, leaving a
// partial last line for a later Next.
type Tail struct {
	path string
	off  int64  // bytes of the lines read so far
	seq  uint64 // seq and hash of the last record read
	prev string
}

// NewTail returns a Tail that reads the file at path from its start.
func NewTail(path string) *Tail { return &Tail{path: path} }

// Tail returns a Tail positioned after the records Open replayed, so
// its first Next yields the records appended since.
func (l *Ledger) Tail() *Tail {
	t := l.opened
	return &t
}

// step checks that line b extends the chain t has read — the next seq,
// the last hash as its Prev, a body matching its BodyHash and a header
// matching its Hash — and moves t past it. A blank line gives a zero
// Record.
func (t *Tail) step(b []byte) (Record, []byte, error) {
	t.off += int64(len(b)) + 1
	if len(bytes.TrimSpace(b)) == 0 {
		return Record{}, nil, nil
	}
	var rec Record
	var ln struct {
		Body json.RawMessage `json:"body"`
	}
	// A body is decoded only when the header carries its digest.
	if json.Unmarshal(b, &rec) != nil || (rec.BodyHash != "" && json.Unmarshal(b, &ln) != nil) {
		return Record{}, nil, fmt.Errorf("ledger: %s: unparsable record after seq %d (chain broken)", t.path, t.seq)
	}
	if rec.Seq != t.seq+1 || rec.Prev != t.prev || hashBody(ln.Body) != rec.BodyHash || HashRecord(rec) != rec.Hash {
		return Record{}, nil, fmt.Errorf("ledger: %s: hash chain broken at seq %d", t.path, rec.Seq)
	}
	t.seq, t.prev = rec.Seq, rec.Hash
	return rec, ln.Body, nil
}

// Next calls fn with each record appended to the file since the last
// Next (all of them on the first) and its body, in file order. A line
// that does not extend the chain — damage, or a file cut back and
// written anew — ends the pass with a chain-break error; so does an
// error from fn. Either way the Tail stays before that line.
func (t *Tail) Next(fn func(rec Record, body []byte) error) error {
	return wal.Scan(t.path, t.off, func(b []byte) error {
		at := *t
		rec, body, err := t.step(b)
		if err == nil && rec.Seq != 0 {
			err = fn(rec, body)
		}
		if err != nil {
			*t = at
		}
		return err
	})
}
