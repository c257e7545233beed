// Persistent job log: an append-only NDJSON file under the data
// directory recording every job's spec, state transitions, readiness
// trajectory, shard manifest, and (for bio jobs) the per-job shard key
// sealed under a server master key. A restarted draid replays the log
// and re-serves completed jobs' shard sets straight from disk. This file
// holds the record format; appends, fsyncs and torn tails are
// internal/wal's, shared with the audit ledger.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/anonymize"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/pkg/client"
)

// Log record types, one per line of jobs.log.
const (
	recSubmitted = "submitted" // job accepted into the queue
	recDone      = "done"      // pipeline finished; payload fields set
	recFailed    = "failed"    // pipeline errored (or lost to a restart)
	recEvicted   = "evicted"   // completed job expired; shards deleted
	recEvent     = "event"     // timeline-only transition (adoption, requeue)
)

// logRecord is one NDJSON line. Only the fields relevant to its Type
// are populated.
type logRecord struct {
	Type      string            `json:"type"`
	ID        string            `json:"id"`
	Time      time.Time         `json:"time"`
	Spec      *JobSpec          `json:"spec,omitempty"`
	Error     string            `json:"error,omitempty"`
	Started   time.Time         `json:"started,omitzero"`
	Records   int64             `json:"records,omitempty"`
	Servable  bool              `json:"servable,omitempty"`
	Manifest  *shard.Manifest   `json:"manifest,omitempty"`
	Traject   []TrajectoryPoint `json:"trajectory,omitempty"`
	SealedKey string            `json:"sealed_key,omitempty"` // hex(AES-GCM(master, jobKey))
	// Provenance is the job's exported lineage DAG (provenance.Report
	// JSON), persisted with the terminal record so replayed jobs keep
	// answering /v1/jobs/{id}/provenance instead of 409ing.
	Provenance json.RawMessage `json:"provenance,omitempty"`
	// Node names the fleet member that wrote the record (empty on
	// single-node logs) — observability only; ownership is always
	// recomputed from the job ID hash.
	Node string `json:"node,omitempty"`
	// Trace is the request trace ID that caused the record — on
	// submissions the client's end-to-end ID, so a job's whole timeline
	// correlates back to the submitting request across restarts.
	Trace string `json:"trace,omitempty"`
	// Event names a timeline-only transition on recEvent records —
	// lifecycle moments (adoption, requeue) that the state-bearing
	// record types cannot reconstruct on replay.
	Event string `json:"event,omitempty"`
	// Tenant owns the job (submission records; empty with auth off).
	// Persisted so ownership — and therefore visibility scoping and
	// quota charging — survives replay, adoption, and fleet restarts.
	Tenant string `json:"tenant,omitempty"`
}

// appendLog commits one record to this node's job log.
func (s *Server) appendLog(rec logRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: encode job log record: %w", err)
	}
	return s.log.Append(b)
}

// readJobLog parses every complete line of a job log without modifying
// it (it may be a live peer's). Unparsable lines are skipped: data dirs
// written before torn tails were truncated on open hold torn fragments
// sealed by a newline.
func readJobLog(path string) ([]logRecord, error) {
	var recs []logRecord
	err := wal.Scan(path, func(line []byte) error {
		var rec logRecord
		if json.Unmarshal(line, &rec) == nil {
			recs = append(recs, rec)
		}
		return nil
	})
	return recs, err
}

// readAllJobLogs merges every job log under the data dir: "jobs.log"
// (single-node) plus each fleet member's "jobs-<node>.log" on a shared
// parallel filesystem. Records are ordered by timestamp (stable, so
// same-instant records keep their per-file append order) — the merged
// view is what lets any node replay any job, which is the whole point
// of pointing a fleet at one data dir.
func readAllJobLogs(dataDir string) ([]logRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dataDir, "jobs*.log"))
	if err != nil {
		return nil, fmt.Errorf("server: glob job logs: %w", err)
	}
	sort.Strings(paths)
	var all []logRecord
	for _, p := range paths {
		recs, err := readJobLog(p)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all, nil
}

// masterKeyFile holds the 32-byte key that seals per-job bio shard
// keys inside log records, so plaintext shard keys never rest on disk.
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

// sealJobKey protects a per-job shard key for the log, binding it to
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

// replayState is a job reconstructed from the log.
type replayState struct {
	rec     logRecord // the terminal (or submitted) record
	sub     logRecord // the submitted record
	hasSub  bool
	hasTerm bool
	// events are the recEvent records seen for the job, in merged log
	// order — replayed into the timeline alongside the transitions
	// synthesized from the submitted/terminal records.
	events []logRecord
}

// replayJobs folds the log into the surviving job set, in submission
// order, and returns the highest job sequence number allocated by
// selfNode ("" for single-node logs) — other members' sequences live in
// their own ID namespace and must not advance ours.
func replayJobs(recs []logRecord, selfNode string) (jobs []*replayState, maxSeq int) {
	byID := map[string]*replayState{}
	evicted := map[string]bool{}
	var order []string
	for _, rec := range recs {
		if node, n, ok := parseJobID(rec.ID); ok && node == selfNode && n > maxSeq {
			maxSeq = n
		}
		// Eviction is forever: job IDs are never reused, so once any
		// member logged an eviction every other record for that ID is
		// dead — regardless of merge order, which cross-node clock skew
		// can perturb. Without this, a submission record sorting after
		// the eviction would resurrect a job whose shards are deleted.
		if evicted[rec.ID] {
			continue
		}
		if rec.Type == recEvicted {
			evicted[rec.ID] = true
			delete(byID, rec.ID)
			continue
		}
		st := byID[rec.ID]
		if st == nil {
			st = &replayState{}
			byID[rec.ID] = st
			order = append(order, rec.ID)
		}
		switch rec.Type {
		case recSubmitted:
			st.sub, st.hasSub = rec, true
		case recDone, recFailed:
			st.rec, st.hasTerm = rec, true
		case recEvent:
			st.events = append(st.events, rec)
		}
	}
	for _, id := range order {
		if st, ok := byID[id]; ok && st.hasSub {
			jobs = append(jobs, st)
		}
	}
	return jobs, maxSeq
}

// replayEvents reconstructs the part of a job's lifecycle timeline its
// submitted record does not (newJob builds submitted/queued from that):
// running and the terminal state from the terminal record, plus any
// recEvent records (adoption, requeue). The synthesized timeline is why
// the hot path needs no per-transition log appends — the state-bearing
// records already imply the transitions. Job.Events orders the whole.
func replayEvents(st *replayState) []JobEvent {
	var ev []JobEvent
	if st.hasTerm {
		rec := st.rec
		if !rec.Started.IsZero() {
			ev = append(ev, JobEvent{Event: client.EventRunning, Time: rec.Started, Node: rec.Node, Trace: st.sub.Trace})
		}
		name := client.EventDone
		if rec.Type == recFailed {
			name = client.EventFailed
		}
		ev = append(ev, JobEvent{Event: name, Time: rec.Time, Node: rec.Node, Detail: rec.Error, Trace: st.sub.Trace})
	}
	for _, rec := range st.events {
		ev = append(ev, JobEvent{Event: rec.Event, Time: rec.Time, Node: rec.Node, Detail: rec.Error, Trace: rec.Trace})
	}
	return ev
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
