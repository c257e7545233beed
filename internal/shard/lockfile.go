// Node lock files: coordination for multiple draid nodes sharing one
// data directory on a parallel filesystem. Each node registers itself
// by exclusively creating <dir>/<id>.lock and heartbeating its mtime;
// a second process claiming the same node ID fails fast instead of
// interleaving writes into the same ledger, and a lock whose heartbeat
// stopped (a SIGKILLed node) goes stale and can be reclaimed.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// NodeLock is a held per-node lock file. Release it with Release.
type NodeLock struct {
	path string
	f    *os.File

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// ErrNodeLocked reports that another live process holds the node ID.
var ErrNodeLocked = errors.New("shard: node ID is locked by a live process")

// AcquireNodeLock exclusively creates <dir>/<id>.lock (creating dir if
// needed), writes payload into it for operators, and heartbeats the
// file's mtime every staleAfter/4. An existing lock whose mtime is
// older than staleAfter is presumed abandoned by a killed process and
// is reclaimed; a fresh one returns ErrNodeLocked. staleAfter <= 0
// defaults to 10s.
func AcquireNodeLock(dir, id, payload string, staleAfter time.Duration) (*NodeLock, error) {
	if id == "" {
		return nil, errors.New("shard: empty node ID")
	}
	if staleAfter <= 0 {
		staleAfter = 10 * time.Second
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create lock dir: %w", err)
	}
	path := filepath.Join(dir, id+".lock")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if os.IsExist(err) {
		fi, serr := os.Stat(path)
		if serr == nil && time.Since(fi.ModTime()) <= staleAfter {
			return nil, fmt.Errorf("%w: %s (heartbeat %s ago)", ErrNodeLocked, path, time.Since(fi.ModTime()).Round(time.Millisecond))
		}
		// Stale (or vanished between the open and the stat): reclaim.
		// The remove+retry is not atomic, but two processes racing for
		// the same node ID is exactly the operator error the fresh-lock
		// branch above rejects; staleness only arises once the previous
		// holder is dead.
		_ = os.Remove(path)
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: acquire node lock %s: %w", path, err)
	}
	if _, err := f.WriteString(payload + "\n"); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shard: write node lock: %w", err)
	}
	_ = f.Sync()
	l := &NodeLock{path: path, f: f, stop: make(chan struct{})}
	interval := staleAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	l.wg.Add(1)
	go l.heartbeat(interval)
	return l, nil
}

func (l *NodeLock) heartbeat(interval time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			now := time.Now()
			_ = os.Chtimes(l.path, now, now)
		}
	}
}

// Path returns the lock file location.
func (l *NodeLock) Path() string { return l.path }

// Release stops the heartbeat and removes the lock file. Safe to call
// more than once.
func (l *NodeLock) Release() error {
	var err error
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
		cerr := l.f.Close()
		rerr := os.Remove(l.path)
		if cerr != nil {
			err = cerr
		} else if rerr != nil {
			err = rerr
		}
	})
	return err
}

// ListNodeLocks returns the node IDs currently holding lock files under
// dir, newest heartbeat first — the fleet roster as seen from the
// shared filesystem.
func ListNodeLocks(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	type row struct {
		id string
		mt time.Time
	}
	var rows []row
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".lock" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		rows = append(rows, row{id: name[:len(name)-len(".lock")], mt: fi.ModTime()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mt.After(rows[j].mt) })
	ids := make([]string, len(rows))
	for i := range rows {
		ids[i] = rows[i].id
	}
	return ids
}
