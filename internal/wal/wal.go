// Package wal is the append-only log file under draid's audit ledger,
// which is also each node's job log: newline-terminated lines,
// group-committed.
//
// Durability contract: Append returns only once its line is fsynced, by
// its own group's commit. There is no timer: a lone appender syncs at
// once, and the lines that arrive while a sync is in flight share the
// next one. No lock is held across a write or fsync. A failed write or
// fsync is sticky: the group is cut back off the file (best effort),
// every later Append returns the failure, and nothing is written again
// until a reopen. A crash mid-append leaves a final line without its
// '\n'; its Append never returned, because line and '\n' are one write,
// so Open truncates it and Scan never yields it.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// Fsync is (*os.File).Sync behind a variable so tests, here and in the
// packages built on Log, can hold a sync in flight or fail one.
var Fsync = (*os.File).Sync

// Log is an open append log, safe for concurrent appenders.
//
// Under mu an appender adds its line to pending. If no sync is in
// flight it leads: it takes pending, releases mu, writes and fsyncs the
// group, then re-takes mu to advance durable and wake the waiters. Lines
// arriving meanwhile form the next group, led by the first of their
// waiters to see the file idle, so file order is Add order.
type Log struct {
	f    *os.File
	size int64 // bytes durable in the file; only the leader touches it

	mu      sync.Mutex
	synced  sync.Cond // on mu; broadcast whenever a group sync ends
	pending []byte    // lines added but not yet taken by a leader
	added   uint64    // lines added this process
	durable uint64    // lines of those that are fsynced
	syncing bool      // a leader is writing and fsyncing a group outside mu
	err     error     // first failed write or fsync
	closed  bool

	// Atomics, not mu: a /metrics scrape never waits on appenders.
	nLines, nSyncs, nBytes atomic.Int64
}

// Open opens (or creates, mode 0600) the log at path and calls replay
// with each complete line, in file order and without its '\n'. A final
// line with no '\n' is truncated away. An error from replay fails Open
// unwrapped.
func Open(path string, replay func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	good, total, err := scan(f, replay)
	if err == nil && total > good {
		err = f.Truncate(good) // names the op and path itself
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, size: good}
	l.synced.L = &l.mu
	return l, nil
}

// Scan calls fn with each complete line of the log at path from byte
// offset off on (a line start: the caller counts each line's length
// plus its '\n'), in file order and without its '\n', and stops at the
// first error fn returns. It only reads: a partial last line (a torn
// tail, or another process's append in flight) is skipped and left in
// place.
func Scan(path string, off int64, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	_, _, err = scan(io.NewSectionReader(f, off, math.MaxInt64-off), fn)
	return err
}

// scan streams r's lines to fn, returning the offset just past the last
// complete line and the total bytes read.
func scan(r io.Reader, fn func(line []byte) error) (good, total int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		total += int64(len(line))
		if rerr == io.EOF {
			return good, total, nil
		}
		if rerr != nil {
			return good, total, fmt.Errorf("wal: read: %w", rerr)
		}
		if err := fn(line[:len(line)-1]); err != nil {
			return good, total, err
		}
		good = total
	}
}

// Add queues one line (which must not contain '\n') for the next group
// commit and returns its ticket for Wait. Once the log is closed or has
// failed it queues nothing and returns an error.
func (l *Log) Add(line []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: %s: closed", l.f.Name())
	}
	l.pending = append(append(l.pending, line...), '\n')
	l.added++
	return l.added, nil
}

// Wait returns once the line with ticket n is durable, or returns the
// failure that kept it from the disk.
func (l *Log) Wait(n uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked(n)
}

// Append adds one line and returns once it is durable.
func (l *Log) Append(line []byte) error {
	n, err := l.Add(line)
	if err != nil {
		return err
	}
	return l.Wait(n)
}

// waitLocked leads or waits for group commits until line n is durable
// or the log has failed. Caller holds mu.
func (l *Log) waitLocked(n uint64) error {
	for l.durable < n && l.err == nil {
		if l.syncing {
			l.synced.Wait()
		} else {
			l.commitLocked()
		}
	}
	if l.durable < n {
		return l.err
	}
	return nil
}

// commitLocked leads one group, as Log describes. Caller holds mu, no
// sync is in flight, and l.err is nil.
func (l *Log) commitLocked() {
	buf, upto := l.pending, l.added
	l.pending = nil
	l.syncing = true
	l.mu.Unlock()
	_, err := l.f.Write(buf)
	if err == nil {
		err = Fsync(l.f)
	}
	if err != nil {
		err = fmt.Errorf("wal: commit to %s: %w", l.f.Name(), err)
		// The group's appends fail, so a reopen must not replay it.
		_ = l.f.Truncate(l.size)
	}
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.err = err
	} else {
		l.size += int64(len(buf))
		l.nLines.Add(int64(upto - l.durable))
		l.nBytes.Add(int64(len(buf)))
		l.nSyncs.Add(1)
		l.durable = upto
	}
	l.synced.Broadcast()
}

// Err returns the sticky commit failure, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats is a point-in-time counter snapshot for /metrics.
type Stats struct {
	Records int64 // lines made durable this process (replayed ones excluded)
	Syncs   int64 // successful fsyncs (one per group commit)
	Bytes   int64 // bytes made durable this process
}

// Stats snapshots the counters without taking the lock (each is read on
// its own, so a snapshot mid-commit may count a group's lines but not
// yet its sync).
func (l *Log) Stats() Stats {
	return Stats{Records: l.nLines.Load(), Syncs: l.nSyncs.Load(), Bytes: l.nBytes.Load()}
}

// Close commits every line already added (waiting out an in-flight
// sync) and closes the file. It returns the sticky commit failure, if
// any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.waitLocked(l.added)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
