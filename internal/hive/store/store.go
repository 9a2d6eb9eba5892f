// Package store is the Hive's storage layer: one engine, the segmented
// log, behind the Store interface the Hive programs against. It persists
// the JSONL event records the Hive journals (see internal/hive's event
// codec) in rotating segment files — one rotating tail per commit shard,
// so two hot tasks on different shards never serialise on one fsync — and
// periodically folds sealed history, together with the owner's in-memory
// state, into one immutable snapshot, so restart cost is O(writes since
// the last fold), not O(history). See Segmented for the on-disk layout.
//
// The engine knows nothing about event semantics: records are opaque JSON
// lines, snapshots are opaque state blobs. The owner (internal/hive)
// encodes, decodes and applies both. Crash consistency: a torn final
// append (a trailing run of unterminated or non-JSON bytes, the signature
// of a crash mid-write) is truncated away on recovery — an
// fsync-acknowledged record always ends in a synced newline, so
// truncation can only drop writes that were never acknowledged.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"apisense/internal/apierr"
)

// Sentinel errors of the storage layer — coded apierr sentinels; the
// Hive wraps them in its own hive.journal_io / hive.corrupt_journal
// sentinels at the registry boundary, so both codes match with
// errors.Is (see docs/OPERATIONS.md for remediations).
var (
	// ErrIO marks a disk failure (open, append, fsync, rename, close).
	ErrIO = apierr.New("store.io", apierr.Internal, "store: log I/O")
	// ErrCorrupt marks a log record that cannot be a torn tail: invalid
	// bytes with valid records after them, or a snapshot that does not
	// parse. Recovery refuses to guess; restore from a replica or
	// hand-repair the file.
	ErrCorrupt = apierr.New("store.corrupt", apierr.Internal, "store: corrupt log")
)

// Store is the Hive's seam to its storage engine. The lifecycle is:
// construct (OpenSegmented), Recover exactly once to replay persisted
// state and open the append handles, then append freely; appends before
// Recover fail with ErrIO. All methods are safe for concurrent use after
// Recover.
//
// Commit boundaries: every Append* call is one group commit on its
// shard, fsynced per the SetSyncEvery cadence. The caller owns ordering:
// records within one Append* call land in order, and two calls on the
// same shard land in call order (each shard serialises internally) — the
// Hive's commit locks provide the cross-call ordering its replay needs.
type Store interface {
	// Recover streams persisted state back to the owner: the snapshot
	// blob first (if one was folded; the owner may keep the slice), then
	// every log record, each task's records in arrival order. Torn final
	// appends are truncated away
	// (see the package comment); corruption that cannot be a torn tail
	// fails with ErrCorrupt. After Recover returns the engine is ready to
	// append.
	Recover(snapshot func(state []byte) error, record func(rec []byte) error) error
	// AppendMeta durably appends control-plane records (registrations,
	// task publications) as one commit boundary on shard 0.
	AppendMeta(recs [][]byte) error
	// AppendBatch durably appends data-plane records as one commit
	// boundary on the given shard (0 <= shard < Shards()).
	AppendBatch(shard int, recs [][]byte) error
	// Shards reports how many independent commit shards the engine has.
	Shards() int
	// ShardFor maps a task key to its commit shard.
	ShardFor(key string) int
	// SnapshotDue reports whether the engine wants the owner to fold a
	// snapshot (see WriteSnapshot). Cheap: read on every commit.
	SnapshotDue() bool
	// WriteSnapshot folds state — the owner's complete in-memory image,
	// covering every record appended so far — into an immutable snapshot
	// and retires the log files it supersedes. The caller must quiesce
	// appends for the duration (the Hive holds all commit locks).
	// Failures are counted in Stats. A fold that fails before the
	// snapshot is published leaves the log intact and is retried at a
	// later due point; one that fails after publication fail-stops the
	// engine (appends return ErrIO) so no acknowledged record can land in
	// a file the snapshot already covers — restart to Recover.
	WriteSnapshot(state []byte) error
	// SetSyncEvery tunes the group-commit durability cadence on every
	// file of the engine: fsync once per n commit boundaries (default 1);
	// n <= 0 disables fsync, leaving flushes to the OS (Close still
	// syncs).
	SetSyncEvery(n int)
	// Stats snapshots the engine gauges.
	Stats() Stats
	// Close syncs outstanding commits and releases every file. The file
	// descriptors are closed even when the final sync fails — the sync
	// error is still returned, but nothing leaks.
	Close() error
}

// Stats are the storage-engine gauges, surfaced on GET /api/stats and —
// via hive.WithMetrics — as apisense_store_* series on /metrics.
type Stats struct {
	// Shards is the number of independent commit shards.
	Shards int `json:"shards"`
	// Segments counts the live log files: sealed-but-unfolded segments
	// plus one open tail per shard.
	Segments int `json:"segments"`
	// LogBytes is the byte volume of the live log files — what the next
	// restart will replay line by line.
	LogBytes int64 `json:"logBytes"`
	// Syncs counts fsyncs across every file of the engine.
	Syncs uint64 `json:"syncs"`
	// ShardSyncs counts fsyncs per commit shard (len == Shards; shard 0
	// also carries the control-plane records). Independent entries
	// growing under a multi-task workload are the proof that hot tasks do
	// not serialise on one commit boundary.
	ShardSyncs []uint64 `json:"shardSyncs,omitempty"`
	// Snapshots and SnapshotFailures count completed and failed folds.
	Snapshots        uint64 `json:"snapshots"`
	SnapshotFailures uint64 `json:"snapshotFailures"`
	// LastSnapshotAt is when the last fold completed (zero = never).
	LastSnapshotAt time.Time `json:"lastSnapshotAt,omitzero"`
	// LastSnapshotDuration is how long the last fold took.
	LastSnapshotDuration time.Duration `json:"lastSnapshotDurationNs"`
	// ReplayDuration and ReplayRecords describe the last Recover: how
	// long the log replay took and how many records it streamed. Folds
	// keep both bounded by the tail size no matter how old the
	// deployment is — the restart-cost gauge.
	ReplayDuration time.Duration `json:"replayDurationNs"`
	ReplayRecords  int64         `json:"replayRecords"`
}

// logFile is one append-only JSONL file with its own group-commit
// boundary: a mutex serialising append+fsync, a sync cadence and a sync
// counter. Each commit shard of the engine is one logFile whose path moves
// to a fresh segment at every rotation and fold; the lock, cadence and
// counter stay with the shard.
type logFile struct {
	// mu serialises append+fsync, rotation and folding on this shard;
	// held across the sync by design — it is the shard's commit boundary,
	// and nothing that reads registry state ever contends on it.
	//
	//lint:allowsync designated per-shard commit lock, serialises append+fsync and rotation by design
	mu        sync.Mutex
	f         *os.File
	path      string
	size      int64
	syncEvery int
	pending   int
	syncs     atomic.Uint64 // read lock-free by Stats
}

// open readies the file at lf.path for appending (creating it if needed).
// Called with lf.mu held, after replayFile has truncated any torn tail.
func (lf *logFile) open() error {
	f, err := os.OpenFile(lf.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%w: open %s: %w", ErrIO, lf.path, err)
	}
	lf.f = f
	return nil
}

// appendLocked writes recs — one JSON document per record,
// newline-terminated — as one commit boundary, syncing per the cadence.
// The caller holds lf.mu.
func (lf *logFile) appendLocked(recs [][]byte) error {
	if lf.f == nil {
		return fmt.Errorf("%w: %s: append before Recover (or after Close)", ErrIO, lf.path)
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.Write(rec)
		buf.WriteByte('\n')
	}
	if _, err := lf.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("%w: append %s: %w", ErrIO, lf.path, err)
	}
	lf.size += int64(buf.Len())
	if lf.syncEvery <= 0 {
		return nil
	}
	if lf.pending++; lf.pending < lf.syncEvery {
		return nil
	}
	lf.pending = 0
	if err := lf.f.Sync(); err != nil {
		return fmt.Errorf("%w: sync %s: %w", ErrIO, lf.path, err)
	}
	lf.syncs.Add(1)
	return nil
}

// setSyncEvery tunes the commit cadence.
func (lf *logFile) setSyncEvery(n int) {
	lf.mu.Lock()
	lf.syncEvery = n
	lf.mu.Unlock()
}

// close syncs and releases the file. The descriptor is closed even when
// the sync fails — the sync error is returned, but nothing leaks.
func (lf *logFile) close() error {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.closeLocked()
}

// closeLocked is close with lf.mu held. Idempotent: a second close is a
// no-op.
func (lf *logFile) closeLocked() error {
	if lf.f == nil {
		return nil
	}
	syncErr := lf.f.Sync()
	closeErr := lf.f.Close() // always runs: no fd leak when the sync fails
	lf.f, lf.pending = nil, 0
	if syncErr != nil {
		return fmt.Errorf("%w: close sync %s: %w", ErrIO, lf.path, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("%w: close %s: %w", ErrIO, lf.path, closeErr)
	}
	return nil
}

// bytesAndSyncs snapshots the file's gauges.
func (lf *logFile) bytesAndSyncs() (int64, uint64) {
	lf.mu.Lock()
	size := lf.size
	lf.mu.Unlock()
	return size, lf.syncs.Load()
}

// replayFile streams the JSONL records of path into record, skipping
// blank lines. A missing file is an empty log. Invalid records are
// handled per tolerance:
//
//   - tolerant (the file could have been mid-append at a crash): a
//     trailing run of unterminated or non-JSON records is a torn final
//     append — the file is truncated back to the last valid boundary and
//     the torn bytes are dropped. An fsync-acknowledged record always
//     ends in a synced newline, so only unacknowledged writes can be
//     dropped. A valid record after an invalid one cannot be a tear and
//     fails with ErrCorrupt.
//   - strict (sealed segments, completed and synced in a previous
//     life): any invalid record fails with ErrCorrupt.
//
// Returns the number of records streamed and the usable size of the file
// after any truncation.
func replayFile(path string, tolerant bool, record func([]byte) error) (n, size int64, err error) {
	flag := os.O_RDONLY
	if tolerant {
		flag = os.O_RDWR // a torn tail is cut through the same handle
	}
	f, err := os.OpenFile(path, flag, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("%w: open %s: %w", ErrIO, path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64       // start offset of the line being read
	tornAt := int64(-1) // offset of the first invalid record
	for {
		line, rerr := r.ReadBytes('\n')
		if len(line) > 0 {
			terminated := line[len(line)-1] == '\n'
			rec := bytes.TrimSuffix(line, []byte("\n"))
			switch {
			case terminated && len(bytes.TrimSpace(rec)) == 0:
				// Blank line: preserved journal quirk, not a record.
			case terminated && json.Valid(rec):
				if tornAt >= 0 {
					return n, off, fmt.Errorf("%w: %s: valid record after invalid bytes at offset %d — not a torn tail, refusing to truncate", ErrCorrupt, path, tornAt)
				}
				if err := record(rec); err != nil {
					return n, off, err
				}
				n++
			default:
				// Unterminated or non-JSON: a torn append, if it is the
				// trailing run of the file.
				if !tolerant {
					return n, off, fmt.Errorf("%w: %s: invalid record at offset %d", ErrCorrupt, path, off)
				}
				if tornAt < 0 {
					tornAt = off
				}
			}
			off += int64(len(line))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return n, off, fmt.Errorf("%w: read %s: %w", ErrIO, path, rerr)
		}
	}
	if tornAt < 0 {
		return n, off, nil
	}
	// Cut the tear and sync the cut: the file may be a sealed segment —
	// replayed strictly — by the next recovery, so the torn bytes must not
	// resurface after a second crash.
	if err = f.Truncate(tornAt); err == nil {
		err = f.Sync()
	}
	if err != nil {
		return n, tornAt, fmt.Errorf("%w: truncate torn tail of %s: %w", ErrIO, path, err)
	}
	return n, tornAt, nil
}

// syncDirHook is the directory-sync entry point, a variable so tests can
// inject failures where the engine makes a rename or a fresh segment
// durable.
var syncDirHook = syncDir

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("%w: open dir %s: %w", ErrIO, dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("%w: sync dir %s: %w", ErrIO, dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("%w: close dir %s: %w", ErrIO, dir, closeErr)
	}
	return nil
}
