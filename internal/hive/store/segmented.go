package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// SegmentedConfig sizes the engine. The zero value gets sensible
// defaults.
type SegmentedConfig struct {
	// SegmentBytes is the tail rotation threshold: once a shard's tail
	// file grows past it, the tail is sealed (synced and closed) and a
	// fresh one opened. Default 4 MiB.
	SegmentBytes int64
	// SnapshotEvery triggers a fold: once this many sealed segments have
	// accumulated since the last snapshot, SnapshotDue turns true and the
	// owner folds its state via WriteSnapshot. Default 4.
	SnapshotEvery int
	// Shards is the number of commit shards, each a rotating tail with its
	// own append+fsync boundary; tasks map to shards by hash, so uploads
	// for tasks on different shards commit concurrently. Default 1. The
	// count may change freely between restarts (see Recover).
	Shards int
}

func (c SegmentedConfig) withDefaults() SegmentedConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Segmented is the storage engine: a snapshot plus rotating tails. Each
// commit shard appends to its own tail file, which rotates at
// SegmentBytes; after SnapshotEvery rotations the owner folds its
// complete in-memory state into one immutable snapshot covering every
// shard, and the superseded segments are deleted. Recovery is snapshot +
// remaining segments — O(writes since the last fold), not O(history).
//
// On-disk layout (one directory): snapshot-%08d.json is the newest fold,
// named by the highest segment it covers; seg-%08d.log are shard 0's
// segments after it and seg-%08d.s%02d.log those of shard 1 and up. All
// shards draw segment numbers from one counter, so a number names one
// file and ascending number order is creation order. A fold is
// crash-safe: the snapshot lands via tmp-file + atomic rename before any
// segment is deleted, and recovery ignores (and prunes) segments the
// snapshot already covers, so an interrupted fold can only leave harmless
// leftovers.
type Segmented struct {
	dir string
	cfg SegmentedConfig

	// shards[i] is commit shard i's tail; its mutex is the shard's commit
	// lock. WriteSnapshot takes all of them, in index order.
	shards  []logFile
	nextSeq atomic.Int64 // the next unused segment number

	segments    atomic.Int64 // live segment files, open tails included
	sealed      atomic.Int64 // of those, the ones no shard appends to
	sealedBytes atomic.Int64 // their volume; with the tails, what a restart replays
	due         atomic.Bool

	snapshots        atomic.Uint64
	snapshotFailures atomic.Uint64
	lastSnapshotNs   atomic.Int64 // unix ns; 0 = never
	snapshotDurNs    atomic.Int64
	replayNs         atomic.Int64
	replayRecords    atomic.Int64
}

var _ Store = (*Segmented)(nil)

// OpenSegmented opens the engine on dir, creating the directory if
// needed. Nothing is read until Recover. A regular file at dir is refused:
// it is a journal of the retired single-file engine, which is
// byte-identical to a segment and adopted by moving it into a directory.
func OpenSegmented(dir string, cfg SegmentedConfig) (*Segmented, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: store dir is empty", ErrIO)
	}
	if fi, err := os.Stat(dir); err == nil && fi.Mode().IsRegular() {
		return nil, fmt.Errorf("%w: %s is a single-file journal, not a store directory; adopt it with: mkdir d && mv %s d/%s (then point the store at d)",
			ErrIO, dir, dir, segName(0, 0))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: mkdir %s: %w", ErrIO, dir, err)
	}
	cfg = cfg.withDefaults()
	s := &Segmented{dir: dir, cfg: cfg, shards: make([]logFile, cfg.Shards)}
	for i := range s.shards {
		s.shards[i].syncEvery = 1
	}
	return s, nil
}

const (
	segPrefix  = "seg-"
	segSuffix  = ".log"
	snapPrefix = "snapshot-"
	snapSuffix = ".json"
	tmpSuffix  = ".tmp"
)

func segName(seq, shard int) string {
	if shard == 0 {
		return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
	}
	return fmt.Sprintf("%s%08d.s%02d%s", segPrefix, seq, shard, segSuffix)
}

func snapName(seq int) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the number of an engine file name, or -1 if name is
// not exactly prefix+digits+suffix. Strict on purpose: operator leftovers
// like seg-00000003.log.bak must not replay as live history.
func parseSeq(name, prefix, suffix string) int {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return -1
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok || rest == "" {
		return -1
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return -1
		}
	}
	seq, err := strconv.Atoi(rest)
	if err != nil { // digits only, so only overflow lands here
		return -1
	}
	return seq
}

// segFile is one segment found on disk.
type segFile struct {
	seq, shard int
	path       string
}

// parseSeg is parseSeq for segment names: the number and the shard, which
// is 0 unless the name carries a .sNN part.
func parseSeg(name string) (seq, shard int, ok bool) {
	if seq = parseSeq(name, segPrefix, segSuffix); seq >= 0 {
		return seq, 0, true
	}
	if head, tail, cut := strings.Cut(name, ".s"); cut {
		seq, shard = parseSeq(head, segPrefix, ""), parseSeq(tail, "", segSuffix)
	}
	return seq, shard, seq >= 0 && shard >= 1
}

// Recover implements Store: adopt a directory of the retired sharded
// engine if that is what dir holds, restore the newest snapshot (if any),
// replay the segments after it in number order — strict for sealed
// segments, torn-tail tolerant for the newest segment of each shard,
// which may have been mid-append at a crash — prune what an interrupted
// fold left behind, and open one tail per shard.
//
// One rule keeps each task's records in arrival order whatever shard
// counts the directory has lived under: a shard appends to a recovered
// segment only if that is the newest segment in the directory, and
// otherwise starts a fresh one numbered past every recovered segment, so
// nothing written from here on can replay before anything written
// earlier. Segments of shards beyond the configured count are replayed
// like any other and retired by the next fold.
func (s *Segmented) Recover(snapshot func([]byte) error, record func([]byte) error) error {
	start := time.Now()
	if err := adoptSharded(s.dir); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("%w: read dir %s: %w", ErrIO, s.dir, err)
	}
	snapSeq := -1
	var segs []segFile
	var snaps []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(s.dir, name)) // interrupted fold leftovers
		} else if seq := parseSeq(name, snapPrefix, snapSuffix); seq >= 0 {
			snaps = append(snaps, seq)
			snapSeq = max(snapSeq, seq)
		} else if seq, shard, ok := parseSeg(name); ok {
			segs = append(segs, segFile{seq, shard, filepath.Join(s.dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].seq != segs[j].seq {
			return segs[i].seq < segs[j].seq
		}
		return segs[i].shard < segs[j].shard
	})

	if snapSeq >= 0 {
		state, err := os.ReadFile(filepath.Join(s.dir, snapName(snapSeq)))
		if err != nil {
			return fmt.Errorf("%w: read snapshot %d: %w", ErrIO, snapSeq, err)
		}
		if err := snapshot(state); err != nil {
			return err
		}
	}

	newest := make(map[int]int) // shard -> its highest segment number
	for _, g := range segs {
		newest[g.shard] = g.seq
	}
	var n, volume, lastSize int64
	live := segs[:0]
	for _, g := range segs {
		if g.seq <= snapSeq {
			// Covered by the snapshot: an interrupted fold did not get to
			// delete it. Replaying it would double-apply history.
			os.Remove(g.path)
			continue
		}
		rn, size, err := replayFile(g.path, newest[g.shard] == g.seq, record)
		if err != nil {
			return err
		}
		n += rn
		volume += size
		lastSize = size
		live = append(live, g)
	}
	for _, seq := range snaps {
		if seq < snapSeq {
			os.Remove(filepath.Join(s.dir, snapName(seq)))
		}
	}

	next := snapSeq + 1
	if len(live) > 0 {
		next = live[len(live)-1].seq + 1
	}
	s.nextSeq.Store(int64(next))
	created := 0
	for i := range s.shards {
		lf := &s.shards[i]
		lf.mu.Lock()
		if last := len(live) - 1; last >= 0 && live[last].shard == i {
			lf.path, lf.size = live[last].path, lastSize
			volume -= lastSize
			err = lf.open()
		} else {
			created++
			err = s.startSegment(i)
		}
		lf.mu.Unlock()
		if err != nil {
			break
		}
	}
	if err == nil && created > 0 {
		err = syncDirHook(s.dir)
	}
	if err != nil {
		s.Close() // no tail takes appends unless all do
		return err
	}
	// Sealed-but-unfolded segments survive a restart; re-arm the fold
	// trigger so long-lived histories still converge to snapshot + tails.
	s.segments.Store(int64(len(live) + created))
	s.sealed.Store(int64(len(live) + created - len(s.shards)))
	s.sealedBytes.Store(volume)
	s.due.Store(s.sealed.Load() >= int64(s.cfg.SnapshotEvery))
	s.replayNs.Store(int64(time.Since(start)))
	s.replayRecords.Store(n)
	return nil
}

// startSegment points shard i at a fresh, empty segment numbered past
// every existing one. The caller holds the shard's lock, and syncs the
// directory before an append to the new file is acknowledged.
func (s *Segmented) startSegment(i int) error {
	lf := &s.shards[i]
	lf.path = filepath.Join(s.dir, segName(int(s.nextSeq.Add(1))-1, i))
	lf.size = 0
	return lf.open()
}

// closeAllLocked fail-stops the engine: every later append is refused
// with ErrIO until a restart recovers the directory. The caller holds
// every shard lock.
func (s *Segmented) closeAllLocked() {
	for i := range s.shards {
		s.shards[i].closeLocked()
	}
}

// AppendMeta implements Store: control-plane records commit on shard 0.
func (s *Segmented) AppendMeta(recs [][]byte) error { return s.AppendBatch(0, recs) }

// AppendBatch implements Store: recs commit on shard's tail and fsync
// boundary only, and the tail rotates once it has grown past
// SegmentBytes.
func (s *Segmented) AppendBatch(shard int, recs [][]byte) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("%w: shard %d out of range [0,%d)", ErrIO, shard, len(s.shards))
	}
	lf := &s.shards[shard]
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if err := lf.appendLocked(recs); err != nil {
		return err
	}
	if lf.size < s.cfg.SegmentBytes {
		return nil
	}
	// Rotate: seal the tail (sync + close: sealed segments are fully
	// durable regardless of the commit cadence), open the next one and
	// make its directory entry durable before anything lands in it. A
	// failure leaves the shard closed — fail-stop, like a failed fold.
	if err := lf.closeLocked(); err != nil {
		return err
	}
	lf.syncs.Add(1)
	s.sealedBytes.Add(lf.size)
	if err := s.startSegment(shard); err != nil {
		return err
	}
	if err := syncDirHook(s.dir); err != nil {
		lf.closeLocked()
		return err
	}
	s.segments.Add(1)
	if s.sealed.Add(1) >= int64(s.cfg.SnapshotEvery) {
		s.due.Store(true)
	}
	return nil
}

// Shards implements Store.
func (s *Segmented) Shards() int { return len(s.shards) }

// ShardFor implements Store: FNV-1a of the task key modulo the shard
// count, so a task's uploads always land on one tail, in order.
func (s *Segmented) ShardFor(key string) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// SnapshotDue implements Store.
func (s *Segmented) SnapshotDue() bool { return s.due.Load() }

// WriteSnapshot implements Store: write state to a tmp file, sync it,
// atomically rename it over the engine's snapshot slot, then retire
// every segment it covers (the current tails included) and start a fresh
// tail per shard. The caller quiesces appends for the duration. On
// failure the fold trigger is disarmed — it re-arms at the next rotation,
// bounding retry frequency — and the failure is counted. A failure before
// the rename leaves the log fully intact; a failure after it (directory
// sync, post-fold tails) fail-stops the engine so no new append can land
// in a segment the published snapshot covers — restart and Recover to
// resume.
func (s *Segmented) WriteSnapshot(state []byte) error {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}()
	s.due.Store(false)
	for i := range s.shards {
		if s.shards[i].f == nil {
			return fmt.Errorf("%w: %s: snapshot before Recover (or after Close)", ErrIO, s.dir)
		}
	}
	start := time.Now()
	if err := s.foldLocked(state); err != nil {
		s.snapshotFailures.Add(1)
		return err
	}
	s.snapshots.Add(1)
	s.lastSnapshotNs.Store(start.UnixNano())
	s.snapshotDurNs.Store(int64(time.Since(start)))
	return nil
}

func (s *Segmented) foldLocked(state []byte) error {
	// Every shard is quiesced, so no segment number is handed out during
	// the fold: the snapshot covers every segment up to the newest.
	covered := int(s.nextSeq.Load()) - 1
	err := publish(filepath.Join(s.dir, snapName(covered)), func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	})
	if err != nil {
		return err
	}
	// Renamed into place, the snapshot claims to cover the current tails:
	// whether or not it proves durable, nothing more may land in them.
	err = syncDirHook(s.dir)
	s.closeAllLocked()
	if err != nil {
		// The snapshot's durability is unknown. Appending on would put
		// acknowledged records where the next Recover prunes them. Fail
		// stop instead: appends are refused, every segment stays on disk,
		// and Recover resolves the fold either way without losing a
		// record.
		return err
	}
	// The snapshot is durable: removing what it supersedes is cleanup that
	// recovery redoes if interrupted.
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		seq, _, isSeg := parseSeg(e.Name())
		oldSnap := parseSeq(e.Name(), snapPrefix, snapSuffix)
		if (isSeg && seq <= covered) || (oldSnap >= 0 && oldSnap < covered) {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	for i := range s.shards {
		if err = s.startSegment(i); err != nil {
			break
		}
	}
	if err == nil {
		err = syncDirHook(s.dir)
	}
	if err != nil {
		s.closeAllLocked()
		return err
	}
	s.segments.Store(int64(len(s.shards)))
	s.sealed.Store(0)
	s.sealedBytes.Store(0)
	return nil
}

// publish writes a file crash-safely: write fills path.tmp, which is
// synced and renamed over path. The rename is durable once the caller has
// synced the directory.
func publish(path string, write func(io.Writer) error) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%w: create %s: %w", ErrIO, tmp, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%w: publish %s: %w", ErrIO, path, err)
	}
	return nil
}

// adoptSharded converts a directory of the retired sharded engine —
// meta.log plus shard-NN.log, full history, no snapshot — into segment 0,
// once. The copy is published atomically, so a crash leaves either the
// legacy files alone (adoption reruns) or a segment beside them; in a
// directory that already holds a segment or a snapshot the legacy files
// are therefore leftovers of a finished adoption and are only removed.
//
// The registry events go first, then the shard files from the highest
// index down: under the old engine a shrunk shard count left each task's
// older uploads in the higher-numbered file.
func adoptSharded(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("%w: read dir %s: %w", ErrIO, dir, err)
	}
	var legacy []segFile // .shard is the legacy file's index, meta.log counting as the highest
	adopted := false
	for _, e := range entries {
		name := e.Name()
		if idx := parseSeq(name, "shard-", ".log"); idx >= 0 {
			legacy = append(legacy, segFile{shard: idx, path: filepath.Join(dir, name)})
		} else if name == "meta.log" {
			legacy = append(legacy, segFile{shard: math.MaxInt, path: filepath.Join(dir, name)})
		} else if _, _, ok := parseSeg(name); ok || parseSeq(name, snapPrefix, snapSuffix) >= 0 {
			adopted = true
		}
	}
	if len(legacy) == 0 {
		return nil
	}
	sort.Slice(legacy, func(i, j int) bool { return legacy[i].shard > legacy[j].shard })
	if !adopted {
		err := publish(filepath.Join(dir, segName(0, 0)), func(f io.Writer) error {
			w := bufio.NewWriterSize(f, 1<<20)
			for _, l := range legacy {
				_, _, err := replayFile(l.path, true, func(rec []byte) error {
					w.Write(rec)
					return w.WriteByte('\n')
				})
				if err != nil {
					return err
				}
			}
			return w.Flush()
		})
		if err == nil {
			err = syncDirHook(dir)
		}
		if err != nil {
			return err
		}
	}
	for _, l := range legacy {
		os.Remove(l.path)
	}
	return nil
}

// SetSyncEvery implements Store: the cadence applies to each shard
// independently.
func (s *Segmented) SetSyncEvery(n int) {
	for i := range s.shards {
		s.shards[i].setSyncEvery(n)
	}
}

// Stats implements Store.
func (s *Segmented) Stats() Stats {
	st := Stats{
		Shards:               len(s.shards),
		Segments:             int(s.segments.Load()),
		LogBytes:             s.sealedBytes.Load(),
		ShardSyncs:           make([]uint64, len(s.shards)),
		Snapshots:            s.snapshots.Load(),
		SnapshotFailures:     s.snapshotFailures.Load(),
		LastSnapshotDuration: time.Duration(s.snapshotDurNs.Load()),
		ReplayDuration:       time.Duration(s.replayNs.Load()),
		ReplayRecords:        s.replayRecords.Load(),
	}
	for i := range s.shards {
		size, syncs := s.shards[i].bytesAndSyncs()
		st.LogBytes += size
		st.ShardSyncs[i] = syncs
		st.Syncs += syncs
	}
	if ns := s.lastSnapshotNs.Load(); ns != 0 {
		st.LastSnapshotAt = time.Unix(0, ns)
	}
	return st
}

// Close implements Store: syncs outstanding commits and releases every
// tail. All are closed even when some fail.
func (s *Segmented) Close() error {
	var errs []error
	for i := range s.shards {
		errs = append(errs, s.shards[i].close())
	}
	return errors.Join(errs...)
}
