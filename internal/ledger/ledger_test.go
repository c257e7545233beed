package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

func openTest(t testing.TB, path string, batch int) *Ledger {
	t.Helper()
	l, err := Open(Config{Path: path, Node: "n1", BatchSize: batch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t testing.TB, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(TypeSubmitted, "acme", fmt.Sprintf("job-%06d", i+1), ""); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestAppendReplayRecomputesRoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	appendN(t, l, 10) // 2 sealed batches of 4 + open batch of 2
	rootsBefore := l.Roots()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openTest(t, path, 4)
	defer l2.Close()
	if got := l2.Len(); got != 10 {
		t.Fatalf("replayed Len = %d, want 10", got)
	}
	rootsAfter := l2.Roots()
	if len(rootsAfter) != 3 || len(rootsBefore) != 3 {
		t.Fatalf("roots count before/after = %d/%d, want 3", len(rootsBefore), len(rootsAfter))
	}
	for i := range rootsAfter {
		if rootsAfter[i] != rootsBefore[i] {
			t.Fatalf("root %d changed across replay: %+v vs %+v", i, rootsBefore[i], rootsAfter[i])
		}
	}
	if !rootsAfter[0].Sealed || !rootsAfter[1].Sealed || rootsAfter[2].Sealed {
		t.Fatalf("sealing flags wrong: %+v", rootsAfter)
	}
	// The chain must extend seamlessly after replay.
	rec, err := l2.Append(TypeEvicted, "acme", "job-000001", "")
	if err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
	if rec.Seq != 11 {
		t.Fatalf("post-replay Seq = %d, want 11", rec.Seq)
	}
	prev, _ := l2.Prove(10)
	if rec.Prev != prev.Record.Hash {
		t.Fatalf("post-replay record does not chain to replayed tail")
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	appendN(t, l, 5)
	l.Close()

	// Simulate a crash mid-append: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":6,"time":"2026-0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openTest(t, path, 4)
	defer l2.Close()
	if got := l2.Len(); got != 5 {
		t.Fatalf("Len after torn tail = %d, want 5", got)
	}
	rec, err := l2.Append(TypeStream, "acme", "job-000002", "")
	if err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	if rec.Seq != 6 {
		t.Fatalf("Seq after truncation = %d, want 6", rec.Seq)
	}
	// The file must hold exactly 6 clean lines now.
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("file holds %d lines, want 6", len(lines))
	}
}

func TestChainBreakDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	appendN(t, l, 6)
	l.Close()

	b, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(b), "\n")

	t.Run("edited record", func(t *testing.T) {
		tampered := append([]string(nil), lines...)
		var rec Record
		if err := json.Unmarshal([]byte(tampered[2]), &rec); err != nil {
			t.Fatal(err)
		}
		rec.Job = "job-999999" // rewrite history, keep everything else
		tb, _ := json.Marshal(rec)
		tampered[2] = string(tb) + "\n"
		p := filepath.Join(t.TempDir(), "audit.log")
		os.WriteFile(p, []byte(strings.Join(tampered, "")), 0o600)
		if _, err := Open(Config{Path: p, BatchSize: 4}); err == nil ||
			!strings.Contains(err.Error(), "chain broken") {
			t.Fatalf("edited record not detected: err=%v", err)
		}
	})

	t.Run("deleted record", func(t *testing.T) {
		tampered := append(append([]string(nil), lines[:2]...), lines[3:]...)
		p := filepath.Join(t.TempDir(), "audit.log")
		os.WriteFile(p, []byte(strings.Join(tampered, "")), 0o600)
		if _, err := Open(Config{Path: p, BatchSize: 4}); err == nil ||
			!strings.Contains(err.Error(), "chain broken") {
			t.Fatalf("deleted record not detected: err=%v", err)
		}
	})
}

func TestProofsVerifyAgainstPublishedRoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	defer l.Close()
	appendN(t, l, 11) // sealed batches 0..1, open batch 2 with 3 records
	roots := l.Roots()
	rootOf := map[int]string{}
	for _, r := range roots {
		rootOf[r.Batch] = r.Root
	}
	for seq := uint64(1); seq <= 11; seq++ {
		p, err := l.Prove(seq)
		if err != nil {
			t.Fatalf("Prove(%d): %v", seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("Verify(%d): %v", seq, err)
		}
		if rootOf[p.Batch] != p.Root {
			t.Fatalf("proof %d root not among published roots (batch %d)", seq, p.Batch)
		}
	}
	// A tampered proof must not verify.
	p, _ := l.Prove(3)
	p.Record.Tenant = "mallory"
	if err := p.Verify(); err == nil {
		t.Fatal("tampered record verified")
	}
	p, _ = l.Prove(3)
	if len(p.Path) > 0 {
		p.Path[0].Left = !p.Path[0].Left
		if err := p.Verify(); err == nil {
			t.Fatal("tampered path verified")
		}
	}
}

// TestGroupCommitAmortizesSyncs: concurrent appends committed in shared
// groups (the first sync is held until every appender is queued) still
// land in seq order, so the log replays as one unbroken chain. How many
// syncs the groups cost is internal/wal's test.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 64)
	defer l.Close()
	entered, release := holdFirstSync(t)
	defer release()
	const n = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := l.Append(TypeSubmitted, "t", fmt.Sprintf("job-%06d", i), ""); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	close(start)
	<-entered
	waitAssigned(t, l, n)
	release()
	wg.Wait()
	if st := l.Stats(); st.Records != n || st.Syncs >= n {
		t.Fatalf("Stats = %+v for %d concurrent appends", st, n)
	}
	roots := l.Roots()
	l.Close()
	l2 := openTest(t, path, 64)
	defer l2.Close()
	if got := l2.Len(); got != n {
		t.Fatalf("replayed Len = %d, want %d", got, n)
	}
	if got := l2.Roots(); fmt.Sprint(got) != fmt.Sprint(roots) {
		t.Fatalf("replayed roots %+v, want %+v", got, roots)
	}
}

// holdFirstSync swaps the WAL's fsync seam for one that parks the first
// sync until release is called; entered fires once that sync is held.
// Later syncs, and every sync after the test, go straight to the disk.
// release is idempotent: a test defers it after its deferred Close, so
// a failure while the sync is held cannot leave Close waiting forever.
func holdFirstSync(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	in, held := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	var calls atomic.Int32
	orig := wal.Fsync
	wal.Fsync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(in)
			<-held
		}
		return orig(f)
	}
	t.Cleanup(func() { wal.Fsync = orig })
	t.Cleanup(release)
	return in, release
}

// within runs fn on its own goroutine and fails the test if it has not
// returned in time: the reads under test must never wait for a disk.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind an in-flight fsync", what)
	}
}

// waitAssigned waits until the ledger has assigned seq want: the
// appenders it stands for are queued in the WAL behind the held sync.
func waitAssigned(t *testing.T, l *Ledger, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		got := l.seq
		l.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("assigned seq %d, want %d", got, want)
		}
		runtime.Gosched()
	}
}

// TestGroupCommitDuringHeldSync pins the read side with one fsync held
// in flight: reads neither block nor see the unsynced record, and once
// the sync finishes the record is served and seals its batch.
func TestGroupCommitDuringHeldSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	defer l.Close()
	appendN(t, l, 3)
	before := l.Roots()
	entered, release := holdFirstSync(t)
	defer release()

	first := make(chan error, 1)
	go func() {
		_, err := l.Append(TypeStream, "acme", "job-000004", "") // seq 4 fills batch 0
		first <- err
	}()
	<-entered

	within(t, "Len/Prove/Roots", func() {
		if got := l.Len(); got != 3 {
			t.Errorf("Len = %d during the held sync, want 3", got)
		}
		if _, err := l.Prove(4); err == nil {
			t.Error("Prove(4) served before its fsync finished")
		}
		if p, err := l.Prove(3); err != nil || p.Root != before[0].Root {
			t.Errorf("Prove(3) = %v, %v; want a proof against the published root %s", p, err, before[0].Root)
		}
		if got := l.Roots(); len(got) != 1 || got[0] != before[0] {
			t.Errorf("Roots = %+v during the held sync, want %+v (batch 0 not sealed until seq 4 is durable)", got, before)
		}
	})

	release()
	if err := <-first; err != nil {
		t.Fatalf("held Append: %v", err)
	}
	if _, err := l.Prove(4); err != nil {
		t.Fatalf("Prove(4) after its fsync finished: %v", err)
	}
	if got := l.Roots(); len(got) != 1 || !got[0].Sealed || got[0].Records != 4 {
		t.Fatalf("Roots = %+v after seq 4 is durable, want batch 0 sealed", got)
	}
}

// TestCommitFailureIsSticky: once a group fails to reach the disk, the
// ledger refuses every later append without assigning a seq, Close
// reports the failure, and a reopen replays exactly the records
// committed before it, so it recomputes the roots it published.
func TestCommitFailureIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	appendN(t, l, 5)
	roots := l.Roots()

	orig := wal.Fsync
	var failed atomic.Bool
	wal.Fsync = func(f *os.File) error {
		if failed.CompareAndSwap(false, true) {
			return errors.New("injected fsync failure")
		}
		return orig(f)
	}
	t.Cleanup(func() { wal.Fsync = orig })

	if _, err := l.Append(TypeSubmitted, "acme", "job-000006", ""); err == nil {
		t.Fatal("Append through a failed fsync succeeded")
	}
	seq := l.seq
	if _, err := l.Append(TypeSubmitted, "acme", "job-000007", ""); err == nil {
		t.Fatal("Append after a failed commit succeeded")
	}
	if l.seq != seq {
		t.Fatalf("Append after a failed commit assigned seq %d", l.seq)
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %d after a failed commit, want 5", got)
	}
	if l.Err() == nil {
		t.Fatal("Err is nil after a failed commit")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the commit failure")
	}

	l2 := openTest(t, path, 4)
	defer l2.Close()
	if got := l2.Len(); got != 5 {
		t.Fatalf("reopened Len = %d, want 5", got)
	}
	if got := l2.Roots(); fmt.Sprint(got) != fmt.Sprint(roots) {
		t.Fatalf("reopened roots %+v, want %+v", got, roots)
	}
}

// TestStatsDoesNotTakeTheLock: /metrics reads Stats three times per
// scrape, and a scrape must never queue behind appenders for mu.
func TestStatsDoesNotTakeTheLock(t *testing.T) {
	l := openTest(t, filepath.Join(t.TempDir(), "audit.log"), 8)
	defer l.Close()
	appendN(t, l, 3)
	l.mu.Lock()
	got := make(chan Stats, 1)
	go func() { got <- l.Stats() }()
	select {
	case st := <-got:
		l.mu.Unlock()
		if st.Records != 3 || st.Syncs == 0 || st.Bytes == 0 {
			t.Fatalf("Stats = %+v after 3 appends", st)
		}
	case <-time.After(5 * time.Second):
		l.mu.Unlock()
		t.Fatal("Stats blocked on the ledger mutex")
	}
}

// appendBodies appends n records, every other one with a body.
func appendBodies(t testing.TB, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var body []byte
		if i%2 == 0 {
			body = fmt.Appendf(nil, `{"spec":{"domain":"climate","seed":%d},"sealed_key":"%064x"}`, i, i)
		}
		if _, err := l.AppendBody(TypeSubmitted, "acme", fmt.Sprintf("job-%06d", i+1), "climate", body); err != nil {
			t.Fatalf("AppendBody %d: %v", i, err)
		}
	}
}

// TestBodiesReplayed: Open hands every record and its body to Replay in
// file order, a proof covers the header (with its body_hash) and not the
// body, and a Tail reads only what was appended since it last read.
func TestBodiesReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l := openTest(t, path, 4)
	appendBodies(t, l, 5)
	l.Close()

	var bodies []string
	l, err := Open(Config{Path: path, BatchSize: 4, Replay: func(rec Record, body []byte) error {
		bodies = append(bodies, fmt.Sprintf("%d:%s", rec.Seq, body))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(bodies) != 5 || bodies[1] != "2:" || !strings.HasPrefix(bodies[2], `3:{"spec":{"domain":"climate","seed":2}`) {
		t.Fatalf("replayed %q", bodies)
	}
	p, err := l.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil || p.Record.BodyHash == "" {
		t.Fatalf("proof of a body record: %v, body_hash %q", err, p.Record.BodyHash)
	}
	if b, _ := json.Marshal(p); strings.Contains(string(b), "sealed_key") || strings.Contains(string(b), "spec") {
		t.Fatalf("proof reveals the body: %s", b)
	}

	tail := l.Tail()
	var seqs []uint64
	collect := func(rec Record, _ []byte) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}
	if err := tail.Next(collect); err != nil || len(seqs) != 0 {
		t.Fatalf("a Tail from Open read %v (%v); want nothing", seqs, err)
	}
	appendBodies(t, l, 2)
	if err := tail.Next(collect); err != nil || fmt.Sprint(seqs) != "[6 7]" {
		t.Fatalf("Tail read %v (%v); want [6 7]", seqs, err)
	}
	seqs = nil
	if err := NewTail(path).Next(collect); err != nil || len(seqs) != 7 {
		t.Fatalf("a new Tail read %v (%v); want all 7", seqs, err)
	}
}

// FuzzLedgerReplay feeds arbitrary bytes to Open as an existing log.
// Open must never panic, and it accepts exactly the logs whose every
// complete non-blank line is a record that extends the chain with a
// body matching its body_hash. A log it accepts must extend cleanly:
// one more append, a close and a reopen give Len()+1 and leave every
// already-sealed batch root unchanged. Changing one byte of an accepted
// record's body fails Open as a chain break.
func FuzzLedgerReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "audit.log")
	l := openTest(f, path, 2)
	appendN(f, l, 5)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(valid), "\n")
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])                                        // final newline lost
	f.Add(valid[:len(valid)-len(lines[4])/2])                          // torn mid-record
	f.Add([]byte(strings.Join(append(lines[:2:2], lines[3:]...), ""))) // record deleted
	f.Add([]byte(strings.Replace(string(valid), "job-000003", "job-999999", 1)))
	f.Add(append(append([]byte(nil), valid...), "\n  \n{\"seq\":6"...))
	path = filepath.Join(f.TempDir(), "bodies.log")
	l = openTest(f, path, 2)
	appendBodies(f, l, 5)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	bodies, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bodies)
	f.Add([]byte(strings.Replace(string(bodies), `"seed":2`, `"seed":3`, 1)))            // body edited
	f.Add([]byte(strings.Replace(string(bodies), `"body_hash":"`, `"body_hash":"0`, 1))) // digest edited
	f.Add(regexp.MustCompile(`,"body":.*}\n`).ReplaceAll(bodies, []byte("}\n")))         // bodies dropped
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "audit.log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		type replayed struct {
			rec  Record
			body []byte
		}
		var got []replayed
		l, err := Open(Config{Path: path, BatchSize: 2, Replay: func(rec Record, body []byte) error {
			got = append(got, replayed{rec, body})
			return nil
		}})
		if err != nil {
			return
		}
		complete := 0
		for _, ln := range bytes.SplitAfter(data, []byte("\n")) {
			if bytes.HasSuffix(ln, []byte("\n")) && len(bytes.TrimSpace(ln)) > 0 {
				complete++
			}
		}
		if len(got) != complete {
			l.Close()
			t.Fatalf("Open accepted %d records from %d complete lines", len(got), complete)
		}
		for i, r := range got {
			want := ""
			if len(r.body) > 0 {
				sum := sha256.Sum256(r.body)
				want = hex.EncodeToString(sum[:])
			}
			if r.rec.Seq != uint64(i+1) || r.rec.BodyHash != want || HashRecord(r.rec) != r.rec.Hash {
				l.Close()
				t.Fatalf("Open accepted record %d that does not check: %+v", i+1, r.rec)
			}
		}
		n, roots := l.Len(), l.Roots()
		if _, err := l.Append(TypeSubmitted, "t", "job-fuzz", ""); err != nil {
			t.Fatalf("Append to an accepted log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, err := Open(Config{Path: path, BatchSize: 2})
		if err != nil {
			t.Fatalf("reopen after one append: %v", err)
		}
		defer l2.Close()
		if got := l2.Len(); got != n+1 {
			t.Fatalf("reopened Len = %d, want %d", got, n+1)
		}
		after := l2.Roots()
		for i, r := range roots {
			if r.Sealed && after[i] != r {
				t.Fatalf("sealed batch %d changed across append+reopen: %+v vs %+v", i, r, after[i])
			}
		}
		// One changed byte in the middle of a body: Open fails as a chain
		// break, or — if the byte was not the record's body after all (a
		// copy of it in a field the header ignores) — yields the same.
		end := bytes.LastIndexByte(data, '\n') + 1
		for _, r := range got {
			if len(r.body) == 0 {
				continue
			}
			changed := append([]byte(nil), data...)
			changed[bytes.LastIndex(data[:end], r.body)+len(r.body)/2] ^= 1
			if err := os.WriteFile(path, changed, 0o600); err != nil {
				t.Fatal(err)
			}
			var again []replayed
			l3, err := Open(Config{Path: path, BatchSize: 2, Replay: func(rec Record, body []byte) error {
				again = append(again, replayed{rec, body})
				return nil
			}})
			if err == nil {
				l3.Close()
				if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", got) {
					t.Fatalf("a changed byte in record %d's body was accepted", r.rec.Seq)
				}
			} else if !strings.Contains(err.Error(), "chain broken") {
				t.Fatalf("a changed body byte failed Open with %v, want a chain break", err)
			}
			break
		}
	})
}
