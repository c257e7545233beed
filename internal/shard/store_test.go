package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeSet shards n records through a Writer over the store and
// returns the manifest.
func writeSet(t *testing.T, store Store, prefix string, n int) *Manifest {
	t.Helper()
	w, err := NewWriter(store, Options{Prefix: prefix, TargetBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Write([]byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", 100)))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readSet re-reads every record through the verifying reader.
func readSet(t *testing.T, open Opener, m *Manifest) []string {
	t.Helper()
	var recs []string
	if err := ReadAll(open, m, func(_ string, rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFSSinkRoundTrip(t *testing.T) {
	root := filepath.Join(t.TempDir(), "set")
	s, err := NewFSSink(root)
	if err != nil {
		t.Fatal(err)
	}
	m := writeSet(t, s, "fs", 40)
	recs := readSet(t, s, m)
	if len(recs) != 40 || m.TotalRecords() != 40 {
		t.Fatalf("read %d records, manifest says %d", len(recs), m.TotalRecords())
	}
	if len(m.Shards) < 2 {
		t.Fatalf("want rotation across >=2 shards, got %d", len(m.Shards))
	}
	names := s.Names()
	if len(names) != len(m.Shards) {
		t.Fatalf("store lists %d shards, manifest %d", len(names), len(m.Shards))
	}
	for _, info := range m.Shards {
		if got := s.Size(info.Name); got != info.StoredBytes {
			t.Fatalf("size(%s)=%d, manifest says %d", info.Name, got, info.StoredBytes)
		}
	}

	// A second store over the same root must serve the same bytes: this
	// is the durability contract a process restart relies on.
	if err := s.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFSSink(root)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	recs2 := readSet(t, s2, m2)
	if len(recs2) != len(recs) {
		t.Fatalf("reopened store read %d records, want %d", len(recs2), len(recs))
	}
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("record %d differs across reopen", i)
		}
	}
}

func TestFSSinkManifestReplacedAtomically(t *testing.T) {
	s, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1 := writeSet(t, s, "a", 5)
	if err := s.WriteManifest(m1); err != nil {
		t.Fatal(err)
	}
	m2 := writeSet(t, s, "b", 5)
	m2.Shards = append(m1.Shards, m2.Shards...)
	if err := s.WriteManifest(m2); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != len(m2.Shards) {
		t.Fatalf("manifest has %d shards, want %d", len(got.Shards), len(m2.Shards))
	}
	// No staging leftovers: the temp file must be renamed or removed.
	for _, n := range s.Names() {
		if strings.HasPrefix(n, tmpPrefix) {
			t.Fatalf("temp file %q visible", n)
		}
	}
}

func TestFSSinkRejectsBadNames(t *testing.T) {
	s, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "..", "a/b", `a\b`, "../escape", ManifestFile, tmpPrefix + "x"} {
		if _, err := s.Create(name); err == nil {
			t.Fatalf("Create(%q) accepted", name)
		}
		if _, err := s.Open(name); err == nil {
			t.Fatalf("Open(%q) accepted", name)
		}
	}
}

func readObject(t *testing.T, s *FSSink, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(s.Root(), name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertNoTemps fails if the store's directory holds any staging file.
func assertNoTemps(t *testing.T, s *FSSink) {
	t.Helper()
	entries, err := os.ReadDir(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("staging file %q left behind", e.Name())
		}
	}
}

// FSSink commits at Close, so that is where a taken name is refused —
// WriteObject reports it.
func TestFSSinkDuplicateCreateFails(t *testing.T) {
	s, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(s, "dup", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(s, "dup", []byte("second")); err == nil {
		t.Fatal("duplicate commit accepted")
	}
	if got := readObject(t, s, "dup"); got != "first" {
		t.Fatalf("duplicate commit replaced the object: %q", got)
	}
	assertNoTemps(t, s)
}

// TestFSSinkConcurrentCreateOneWinner: the commit is no-replace, so of
// any number of writers racing for one name exactly one Close succeeds
// and the object holds that writer's bytes.
func TestFSSinkConcurrentCreateOneWinner(t *testing.T) {
	s, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	start := make(chan struct{})
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		w, err := s.Create("contended")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(w, "writer-%d", i); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = w.Close()
		}(i)
	}
	close(start)
	wg.Wait()
	winner := -1
	for i, err := range errs {
		if err != nil {
			continue
		}
		if winner >= 0 {
			t.Fatalf("writers %d and %d both committed %q", winner, i, "contended")
		}
		winner = i
	}
	if winner < 0 {
		t.Fatalf("no writer committed: %v", errs)
	}
	if got, want := readObject(t, s, "contended"), fmt.Sprintf("writer-%d", winner); got != want {
		t.Fatalf("object holds %q, winner wrote %q", got, want)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	assertNoTemps(t, s)
}

// TestFSSinkSyncBarrier: Sync returns only once nothing is queued or in
// flight, leaves no syncer running, and may race writers committing
// more files (run under -race).
func TestFSSinkSyncBarrier(t *testing.T) {
	s, err := NewFSSink(filepath.Join(t.TempDir(), "jobs", "set"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("barrier over an empty store: %v", err)
	}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 3*syncWorkers; i++ {
				if err := WriteObject(s, fmt.Sprintf("w%d-%03d", k, i), []byte("payload")); err != nil {
					t.Error(err)
				}
				if i%syncWorkers == 0 {
					if err := s.Sync(); err != nil {
						t.Error(err)
					}
				}
			}
		}(k)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	pending, queued, newRoot := s.pending, len(s.queue), s.newRoot
	s.mu.Unlock()
	if pending != 0 || queued != 0 {
		t.Fatalf("barrier returned with %d pending, %d queued", pending, queued)
	}
	if newRoot {
		t.Fatal("barrier left the new root's own directory entry unsynced")
	}
	// Syncers exit when the queue drains; none may outlive the work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		workers := s.workers
		s.mu.Unlock()
		if workers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d syncers still running on an idle store", workers)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(s.Names()); got != 4*3*syncWorkers {
		t.Fatalf("store lists %d objects, want %d", got, 4*3*syncWorkers)
	}
}

// TestFSSinkSyncReportsBackgroundFailure: a write-behind fsync that
// fails has nobody to return its error to, so the next barrier must —
// once, and a later barrier over healthy files is clean again.
func TestFSSinkSyncReportsBackgroundFailure(t *testing.T) {
	s, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("doomed")
	if err != nil {
		t.Fatal(err)
	}
	// Closing the descriptor under the writer makes the syncer's fsync
	// fail while the path-based commit still succeeds.
	if err := w.(*fsShard).f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.Sync(); err == nil || !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("barrier hid the failed fsync of %q: %v", "doomed", err)
	}
	if err := WriteObject(s, "healthy", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("failure reported twice: %v", err)
	}
}

// TestFSSinkCrashLeavesNoPartials: an unclosed shard (a crash
// mid-write) must stay invisible, and reopening the root sweeps the
// temp file.
func TestFSSinkCrashLeavesNoPartials(t *testing.T) {
	root := t.TempDir()
	s, err := NewFSSink(root)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("lost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half-written")); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the process dying here.
	if names := s.Names(); len(names) != 0 {
		t.Fatalf("uncommitted shard visible: %v", names)
	}
	if _, err := NewFSSink(root); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("reopen left %d stray files", len(entries))
	}
}

func TestFSSinkDestroy(t *testing.T) {
	root := filepath.Join(t.TempDir(), "doomed")
	s, err := NewFSSink(root)
	if err != nil {
		t.Fatal(err)
	}
	writeSet(t, s, "d", 3)
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("root survived destroy: %v", err)
	}
}

// TestStoresReportMissingAsNotExist: every store's Open and OpenRange
// wrap fs.ErrNotExist for a missing object, an existing empty object
// opens (size 0), and a failure that is not a missing object — here an
// FSSink whose root was replaced by a plain file (ENOTDIR) — neither
// wraps fs.ErrNotExist nor calls itself "not found". ReadObject reads
// every store's objects back exactly.
func TestStoresReportMissingAsNotExist(t *testing.T) {
	fsSink, err := NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{"mem": NewMemSink(), "fs": fsSink}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if err := WriteObject(s, "full", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			if err := WriteObject(s, "empty", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open("missing"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open(missing) = %v, want fs.ErrNotExist", err)
			}
			ro := s.(RangeOpener)
			if _, _, err := ro.OpenRange("missing"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("OpenRange(missing) = %v, want fs.ErrNotExist", err)
			}
			ra, size, err := ro.OpenRange("empty")
			if err != nil || size != 0 {
				t.Fatalf("OpenRange(empty) = size %d, err %v; want 0, nil", size, err)
			}
			ra.Close()
			for obj, want := range map[string]string{"full": "0123456789", "empty": ""} {
				if b, err := ReadObject(s, obj); err != nil || string(b) != want {
					t.Fatalf("ReadObject(%s) = %q, %v", obj, b, err)
				}
			}
		})
	}

	root := fsSink.Root()
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = fsSink.Open("full")
	_, _, rerr := fsSink.OpenRange("full")
	for _, err := range []error{err, rerr} {
		if err == nil || errors.Is(err, fs.ErrNotExist) || strings.Contains(err.Error(), "not found") {
			t.Fatalf("open under a non-directory root: %v; want an open error that is not \"not found\"", err)
		}
	}
}
