// Job records: a job's lifecycle is written to the node's one log, its
// audit ledger. A record's header names its type, job, tenant and node;
// its body — spec, shard manifest, readiness trajectory, lineage and,
// for bio jobs, the per-job shard key sealed under a server master key
// — is covered by the chain through its digest, so an audit proof never
// reveals it. A restarted draid folds its ledger back into its job table
// as Open verifies the chain and re-serves completed jobs' shard sets
// from disk; a fleet member folds the other members' ledgers the same
// way to adopt their jobs.
package server

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/anonymize"
	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/shard"
)

// jobBody is a job record's body. Only the fields relevant to its type
// are set.
type jobBody struct {
	Spec      *JobSpec          `json:"spec,omitempty"`
	Error     string            `json:"error,omitempty"`
	Started   time.Time         `json:"started,omitzero"`
	Records   int64             `json:"records,omitempty"`
	Manifest  *shard.Manifest   `json:"manifest,omitempty"`
	Traject   []TrajectoryPoint `json:"trajectory,omitempty"`
	SealedKey string            `json:"sealed_key,omitempty"` // hex(AES-GCM(master, jobKey))
	// Provenance is the lineage DAG (provenance.Report JSON), so a
	// replayed job still answers /v1/jobs/{id}/provenance.
	Provenance json.RawMessage `json:"provenance,omitempty"`
	// Trace is the submitting request's trace ID, so a job's timeline
	// correlates back to it across restarts.
	Trace string `json:"trace,omitempty"`
}

// jobRecord is one job record: the ledger header (Job is the job's ID,
// Tenant its owner, Node the member that wrote it, Detail an event
// record's event name) and its decoded body.
type jobRecord struct {
	ledger.Record
	jobBody
}

// audit makes one record durable in the ledger — a job record when body
// is non-nil — group-committed, so concurrent appenders share an fsync.
// The wait is a ledger.append child of ctx's span, when ctx carries
// one. A failed append is logged and returned, naming the ledger.
func (s *Server) audit(ctx context.Context, typ, tenantID, job, detail string, body *jobBody) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return fmt.Errorf("audit ledger: encode %s record: %w", typ, err)
		}
	}
	start := time.Now()
	_, err := s.ledger.AppendBody(typ, tenantID, job, detail, b)
	s.recordChildSpan(ctx, "ledger.append", start, time.Now(), map[string]string{"type": typ})
	if err != nil {
		s.logger.Warn("audit append failed", "type", typ, "job", job, "error", err.Error())
		return fmt.Errorf("audit ledger: %w", err)
	}
	return nil
}

// masterKeyFile holds the 32-byte key that seals per-job bio shard
// keys inside job records, so plaintext shard keys never rest on disk.
const masterKeyFile = "master.key"

// loadOrCreateMasterKey returns the data directory's sealing key,
// creating it (0600) on first start. Creation is race-safe for a fleet
// cold-starting on one shared dir: the key is fully written to a temp
// file first and published with an atomic link that fails if the file
// exists, so a member can never read a half-written key — the loser of
// the race just reads the winner's.
func loadOrCreateMasterKey(dataDir string) ([]byte, error) {
	path := filepath.Join(dataDir, masterKeyFile)
	for attempt := 0; attempt < 2; attempt++ {
		b, err := os.ReadFile(path)
		if err == nil {
			// The key seals every job key and derives the fleet's peer-auth
			// secret: a group- or world-readable copy is a credential leak,
			// and refusing to start is the only response that gets noticed.
			if fi, serr := os.Stat(path); serr == nil {
				if mode := fi.Mode().Perm(); mode&0o077 != 0 {
					return nil, fmt.Errorf("server: %s is group/world-readable (mode %04o); chmod it to 0600", path, mode)
				}
			}
			key, derr := hex.DecodeString(strings.TrimSpace(string(b)))
			if derr != nil || len(key) != 32 {
				return nil, fmt.Errorf("server: %s is not a hex-encoded 32-byte key", path)
			}
			return key, nil
		}
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("server: read master key: %w", err)
		}
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("server: generate master key: %w", err)
		}
		f, err := os.CreateTemp(dataDir, ".tmp-master-*")
		if err != nil {
			return nil, fmt.Errorf("server: stage master key: %w", err)
		}
		tmp := f.Name()
		if _, err := f.WriteString(hex.EncodeToString(key) + "\n"); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp)
			return nil, fmt.Errorf("server: write master key: %w", err)
		}
		err = os.Link(tmp, path)
		os.Remove(tmp)
		if err == nil {
			return key, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("server: commit master key: %w", err)
		}
		// Another member linked first; loop back and read its key.
	}
	return nil, fmt.Errorf("server: master key at %s raced and could not be read back", path)
}

// sealJobKey protects a per-job shard key for its done record, binding it to
// the job ID so sealed keys cannot be swapped between records.
func sealJobKey(master, jobKey []byte, jobID string) (string, error) {
	sealed, err := anonymize.EncryptShard(master, "jobkey/"+jobID, jobKey)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sealed), nil
}

// unsealJobKey reverses sealJobKey.
func unsealJobKey(master []byte, sealedHex, jobID string) ([]byte, error) {
	sealed, err := hex.DecodeString(sealedHex)
	if err != nil {
		return nil, fmt.Errorf("server: sealed key for %s is not hex: %w", jobID, err)
	}
	return anonymize.DecryptShard(master, "jobkey/"+jobID, sealed)
}

// replayState is a job reconstructed from its records: the submitted
// one, the latest terminal one (nil while it runs) and its events.
type replayState struct {
	sub, term *jobRecord
	events    []jobRecord
}

// jobFold folds job records, from any number of ledgers read in any
// order, into the jobs they describe: startup folds its own ledger as
// Open verifies it, and a fleet member keeps one fold that its adoption
// scans extend with what every member appended since.
type jobFold struct {
	self    string // this member's ID: maxSeq counts only its job IDs
	byID    map[string]*replayState
	evicted map[string]bool
	maxSeq  int // highest sequence of a job ID self allocated
}

func newJobFold(self string) *jobFold {
	return &jobFold{self: self, byID: map[string]*replayState{}, evicted: map[string]bool{}}
}

// add folds one ledger record in. Other record types, and job records
// whose body does not decode, are skipped.
func (f *jobFold) add(hdr ledger.Record, body []byte) error {
	switch hdr.Type {
	case ledger.TypeSubmitted, ledger.TypeDone, ledger.TypeFailed, ledger.TypeEvicted, ledger.TypeEvent:
	default:
		return nil
	}
	rec := jobRecord{Record: hdr}
	if len(body) > 0 && json.Unmarshal(body, &rec.jobBody) != nil {
		return nil
	}
	if node, n, ok := parseJobID(rec.Job); ok && node == f.self && n > f.maxSeq {
		f.maxSeq = n
	}
	// Eviction is forever: job IDs are never reused, so once any member
	// logged an eviction every other record for that ID is dead —
	// whatever order the ledgers are read in. Without this, a submitted
	// record read after the eviction would resurrect a job whose shards
	// are deleted.
	if f.evicted[rec.Job] {
		return nil
	}
	if rec.Type == ledger.TypeEvicted {
		f.evicted[rec.Job] = true
		delete(f.byID, rec.Job)
		return nil
	}
	st := f.byID[rec.Job]
	if st == nil {
		st = &replayState{}
		f.byID[rec.Job] = st
	}
	switch rec.Type {
	case ledger.TypeSubmitted:
		if rec.Spec != nil {
			st.sub = &rec
		}
	case ledger.TypeDone, ledger.TypeFailed:
		// The latest terminal record wins, whichever ledger held it.
		if st.term == nil || !rec.Time.Before(st.term.Time) {
			st.term = &rec
		}
	case ledger.TypeEvent:
		st.events = append(st.events, rec)
	}
	return nil
}

// states returns the submitted jobs the fold holds, in submission
// order: all of them, or only id's when id is not empty.
func (f *jobFold) states(id string) (out []*replayState) {
	for jid, st := range f.byID {
		if st.sub != nil && (id == "" || jid == id) {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, func(a, b *replayState) int {
		return cmp.Or(a.sub.Time.Compare(b.sub.Time), strings.Compare(a.sub.Job, b.sub.Job))
	})
	return out
}

// parseJobID splits a job ID into its allocating node and sequence:
// "job-%06d" (single-node; node is empty) or "job-<node>-%06d" (fleet;
// the node may itself contain hyphens, so the sequence is the segment
// after the last one). IDs also name shard directories, so the node
// part is held to the same safe charset cluster membership enforces.
func parseJobID(id string) (node string, seq int, ok bool) {
	rest, found := strings.CutPrefix(id, "job-")
	if !found || rest == "" {
		return "", 0, false
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		node, rest = rest[:i], rest[i+1:]
	}
	if node != "" && !cluster.ValidNodeID(node) {
		return "", 0, false
	}
	if rest == "" {
		return "", 0, false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return "", 0, false
		}
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return "", 0, false
	}
	return node, n, true
}
