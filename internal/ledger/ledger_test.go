package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, path string, batch int) *Ledger {
	t.Helper()
	l, err := Open(Config{Path: path, Node: "n1", BatchSize: batch, FlushWait: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(TypeSubmit, "acme", fmt.Sprintf("job-%06d", i+1), ""); err != nil {
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
	rec, err := l2.Append(TypeEvict, "acme", "job-000001", "")
	if err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
	if rec.Seq != 11 {
		t.Fatalf("post-replay Seq = %d, want 11", rec.Seq)
	}
	prev, _ := l2.Record(10)
	if rec.Prev != prev.Hash {
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

// TestGroupCommitAmortizesSyncs holds group commit to a floor: 64
// concurrent appends share at most maxSyncs fsyncs. Each group's leader
// waits FlushWait for followers, so the 64 normally land in two or
// three groups, -race included; the floor leaves room for a slow
// scheduler without letting per-append syncing pass.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(Config{Path: path, BatchSize: 64, FlushWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append(TypeSubmit, "t", fmt.Sprintf("job-%06d", i), ""); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	const maxSyncs = 8
	if st.Syncs > maxSyncs {
		t.Fatalf("group commit issued %d syncs for %d concurrent appends, want <= %d", st.Syncs, n, maxSyncs)
	}
	// Every record must still be on disk, chained, and replayable.
	l.Close()
	l2 := openTest(t, path, 64)
	defer l2.Close()
	if got := l2.Len(); got != n {
		t.Fatalf("replayed Len = %d, want %d", got, n)
	}
}

// TestStatsDoesNotTakeTheLock: a group leader holds mu across its
// fsync, and /metrics reads Stats three times per scrape.
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
