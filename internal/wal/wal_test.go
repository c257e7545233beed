package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openLines opens the log at path and returns it with the lines Open
// replayed.
func openLines(t testing.TB, path string) (*Log, []string) {
	t.Helper()
	var lines []string
	l, err := Open(path, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, lines
}

func appendN(t testing.TB, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

// holdFirstSync swaps the fsync seam for one that parks the first sync
// until release is called; entered fires once that sync is held. Later
// syncs, and every sync after the test, go straight to the disk.
// release is idempotent: a test defers it after its deferred Close, so
// a failure while the sync is held cannot leave Close waiting forever.
func holdFirstSync(t *testing.T) (entered <-chan struct{}, release func(), calls *atomic.Int32) {
	t.Helper()
	in, held := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	calls = new(atomic.Int32)
	orig := Fsync
	Fsync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(in)
			<-held
		}
		return orig(f)
	}
	t.Cleanup(func() { Fsync = orig })
	t.Cleanup(release)
	return in, release, calls
}

// waitAdded waits until want lines have been added: the appenders they
// stand for are queued in pending behind the held sync.
func waitAdded(t *testing.T, l *Log, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		got := l.added
		l.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("added %d lines, want %d", got, want)
		}
		runtime.Gosched()
	}
}

// TestGroupCommitAmortizesSyncs holds group commit to its rule: 64
// concurrent appends cost two fsyncs — one for whatever was pending
// when the file was idle, one for everything that arrived during it.
// Without a timer, how many appends share a sync depends on how long
// the sync takes against how fast appends arrive; left to the temp
// dir's disk and a loaded scheduler that ratio wanders, so the test
// fixes it with the fsync seam: the first sync lasts until every
// appender is queued, as on a disk slower than the burst.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openLines(t, path)
	defer l.Close()
	entered, release, _ := holdFirstSync(t)
	defer release()
	const n = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	close(start)
	<-entered
	waitAdded(t, l, n)
	release()
	wg.Wait()
	st := l.Stats()
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	if st.Syncs != 2 {
		t.Fatalf("group commit issued %d syncs for %d concurrent appends, want 2", st.Syncs, n)
	}
	l.Close()
	l2, lines := openLines(t, path)
	defer l2.Close()
	if len(lines) != n {
		t.Fatalf("replayed %d lines, want %d", len(lines), n)
	}
}

// TestGroupCommitDuringHeldSync pins the commit rule with one fsync
// held in flight: the held Append does not return, the appends that
// arrive meanwhile all complete on exactly one more sync, Close waits
// for the held sync, and Stats counts only finished syncs.
func TestGroupCommitDuringHeldSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openLines(t, path)
	appendN(t, l, 3)
	base := l.Stats()
	entered, release, calls := holdFirstSync(t)
	defer release()

	first := make(chan error, 1)
	go func() { first <- l.Append([]byte("held")) }()
	<-entered
	if st := l.Stats(); st != base {
		t.Errorf("Stats = %+v with a sync in flight, want %+v", st, base)
	}

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append([]byte(fmt.Sprintf("queued %d", i))); err != nil {
				t.Errorf("Append during held sync: %v", err)
			}
		}(i)
	}
	waitAdded(t, l, 4+n)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a sync was still in flight", err)
	case err := <-first:
		t.Fatalf("Append returned (%v) before its fsync finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	if err := <-first; err != nil {
		t.Fatalf("held Append: %v", err)
	}
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d fsyncs for the held group plus %d appends queued behind it, want 2", got, n)
	}
	if st := l.Stats(); st.Syncs != base.Syncs+2 || st.Records != base.Records+1+n {
		t.Fatalf("Stats = %+v after release, want %d syncs and %d records", st, base.Syncs+2, base.Records+1+n)
	}

	l2, lines := openLines(t, path)
	defer l2.Close()
	if len(lines) != 4+n || lines[3] != "held" {
		t.Fatalf("replayed %q, want %d lines with the held line 4th", lines, 4+n)
	}
}

// failNextSync makes the next fsync fail without touching the disk.
func failNextSync(t *testing.T) {
	t.Helper()
	orig := Fsync
	var failed atomic.Bool
	Fsync = func(f *os.File) error {
		if failed.CompareAndSwap(false, true) {
			return errors.New("injected fsync failure")
		}
		return orig(f)
	}
	t.Cleanup(func() { Fsync = orig })
}

// TestCommitFailureIsSticky: once a group fails to reach the disk, its
// bytes are cut back off the file, the log refuses every later append
// without queuing it, Close reports the failure, and a reopen replays
// exactly the lines committed before it.
func TestCommitFailureIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openLines(t, path)
	appendN(t, l, 5)
	size := fileSize(t, path)

	failNextSync(t)
	if err := l.Append([]byte("lost")); err == nil {
		t.Fatal("Append through a failed fsync succeeded")
	}
	if err := l.Append([]byte("refused")); err == nil || l.Err() == nil {
		t.Fatalf("Append after a failed commit: %v (sticky %v)", err, l.Err())
	}
	if l.added != 6 {
		t.Fatalf("a failed log queued a line: added = %d, want 6", l.added)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("log is %d bytes after a failed commit, want %d", got, size)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the commit failure")
	}

	l2, lines := openLines(t, path)
	defer l2.Close()
	if len(lines) != 5 {
		t.Fatalf("reopened log holds %d lines, want 5", len(lines))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestOpenTruncatesTornTail: a final line without its '\n' never
// committed, so Open drops it from the replay and from the file, even
// when it is a well-formed record, and the next append starts clean.
func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("a\n\nb\n{\"complete\":true}"), 0o600); err != nil {
		t.Fatal(err)
	}
	l, lines := openLines(t, path)
	if fmt.Sprint(lines) != "[a  b]" {
		t.Fatalf("replayed %q, want [a  b]", lines)
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "a\n\nb\nc\n" {
		t.Fatalf("file holds %q", b)
	}
}

// TestScanLeavesPartialTail: Scan reads a peer's live log, whose last
// line may be an append still in flight. It yields only complete lines
// and never modifies the file; a Scan from just past the lines already
// read yields a line completed later once, whole.
func TestScanLeavesPartialTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	body := []byte("a\nb\n{\"par")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	var lines []string
	collect := func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}
	if err := Scan(path, 0, collect); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lines) != "[a b]" {
		t.Fatalf("Scan yielded %q, want [a b]", lines)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, body) {
		t.Fatalf("Scan modified the log: %q", b)
	}
	if err := os.WriteFile(path, append(body, "t\"}\nc\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	lines = nil
	if err := Scan(path, int64(len("a\nb\n")), collect); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%q", lines) != `["{\"part\"}" "c"]` {
		t.Fatalf("Scan from the offset yielded %q, want the completed line and c", lines)
	}
}

// TestOpenMode: a new log is created 0600 (logs carry sealed keys and
// tenant IDs); an existing log keeps the mode it has.
func TestOpenMode(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.log")
	if err := os.WriteFile(old, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]os.FileMode{filepath.Join(dir, "new.log"): 0o600, old: 0o644} {
		l, _ := openLines(t, path)
		l.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != want {
			t.Errorf("%s mode %04o, want %04o", filepath.Base(path), got, want)
		}
	}
}

// FuzzWALReplay feeds arbitrary bytes to Open as an existing log. Open
// must never panic, and a log it accepts must extend cleanly: one more
// append, a close and a reopen replay the old lines plus the new one.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a\nb\n"))
	f.Add([]byte("a\nb"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{\"seq\":1}\n{\"seq\":2"))
	f.Add([]byte("\x00\xff\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		l, lines := openLines(t, path)
		if err := l.Append([]byte("fuzz")); err != nil {
			t.Fatalf("Append to an accepted log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, after := openLines(t, path)
		defer l2.Close()
		if want := append(lines, "fuzz"); fmt.Sprintf("%q", after) != fmt.Sprintf("%q", want) {
			t.Fatalf("reopened log replays %q, want %q", after, want)
		}
	})
}
