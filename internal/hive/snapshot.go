package hive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"apisense/internal/transport"
)

// The snapshot codec. A snapshot is the Hive's complete state as one blob
// the storage engine writes and hands back verbatim (store.Store). Uploads
// are nearly all of it, and the Hive already holds each one as the JSON its
// log record carries, so the format frames those bytes instead of encoding
// the uploads again:
//
//	magic     "hive-snapshot/2\n"
//	checksum  CRC-32C of every byte after it, 4 bytes little-endian
//	registry  uvarint length, then JSON {"devices","tasks","assignments","nextTaskId"}
//	tasks     uvarint count, then per task with uploads, in ascending ID order:
//	            uvarint len(id), id,
//	            uvarint uploads (>= 1), uvarint records (summed over them),
//	            one uvarint length per upload, then the uploads' JSON back to back
//
// A fold copies the held bytes in and a restore slices them back out; no
// upload body is parsed either way, so the checksum — not JSON syntax — is
// what rejects a damaged file, and it rejects any flipped byte. The
// encoding is canonical: one state has one image, and restoreState accepts
// only images encodeState could have written, so restoring and re-encoding
// an accepted snapshot gives back its exact bytes.
//
// Earlier releases wrote the whole state as one JSON object. restoreState
// still accepts that form (it starts with '{'); its uploads are decoded once
// and re-encoded, and the next fold rewrites the file in this one.
var snapshotMagic = []byte("hive-snapshot/2\n")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// registryState is the control-plane part of a snapshot. json.Marshal
// emits map keys sorted and assignment sets are sorted ID slices, so one
// registry always encodes to the same bytes.
type registryState struct {
	Devices     map[string]transport.DeviceInfo `json:"devices"`
	Tasks       map[string]transport.TaskSpec   `json:"tasks"`
	Assignments map[string][]string             `json:"assignments"`
	NextTaskID  int                             `json:"nextTaskId"`
}

// registry captures the control-plane state. The caller holds h.mu.
func (h *Hive) registry() registryState {
	st := registryState{
		Devices:     h.devices,
		Tasks:       h.tasks,
		Assignments: make(map[string][]string, len(h.assignments)),
		NextTaskID:  h.nextTaskID,
	}
	for taskID, set := range h.assignments {
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		st.Assignments[taskID] = ids
	}
	return st
}

// restoreRegistry loads a decoded registry into a fresh Hive.
func (h *Hive) restoreRegistry(st registryState) {
	for id, d := range st.Devices {
		h.devices[id] = d
	}
	for id, t := range st.Tasks {
		h.tasks[id] = t
	}
	for taskID, ids := range st.Assignments {
		set := make(map[string]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		h.assignments[taskID] = set
	}
	h.nextTaskID = max(h.nextTaskID, st.NextTaskID)
}

// encodeState writes the snapshot image under the read lock. The caller
// must have quiesced appends (hold metaMu and every commit lock) for the
// image to exactly cover the log.
func (h *Hive) encodeState() ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	reg, err := json.Marshal(h.registry())
	if err != nil {
		return nil, fmt.Errorf("%w: encode snapshot: %w", ErrJournalIO, err)
	}
	// Size the image exactly first: it is about the size of every upload
	// held, and growing it by appends would briefly need up to twice that.
	tasks := make([]string, 0, len(h.uploads))
	size := len(snapshotMagic) + 4 + uvarintLen(len(reg)) + len(reg)
	for id, t := range h.uploads {
		if len(t.raw) == 0 {
			continue
		}
		tasks = append(tasks, id)
		size += uvarintLen(len(id)) + len(id) + uvarintLen(len(t.raw)) + uvarintLen(t.records)
		for _, raw := range t.raw {
			size += uvarintLen(len(raw)) + len(raw)
		}
	}
	sort.Strings(tasks)
	size += uvarintLen(len(tasks))

	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, 0, 0, 0, 0) // the checksum, once the rest is written
	buf = binary.AppendUvarint(buf, uint64(len(reg)))
	buf = append(buf, reg...)
	buf = binary.AppendUvarint(buf, uint64(len(tasks)))
	for _, id := range tasks {
		t := h.uploads[id]
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
		buf = binary.AppendUvarint(buf, uint64(len(t.raw)))
		buf = binary.AppendUvarint(buf, uint64(t.records))
		for _, raw := range t.raw {
			buf = binary.AppendUvarint(buf, uint64(len(raw)))
		}
		for _, raw := range t.raw {
			buf = append(buf, raw...)
		}
	}
	sum := len(snapshotMagic)
	binary.LittleEndian.PutUint32(buf[sum:], crc32.Checksum(buf[sum+4:], castagnoli))
	return buf, nil
}

// restoreState loads a snapshot image into a fresh Hive during recovery.
// The Hive keeps slices of state, so state must not be modified afterwards.
func (h *Hive) restoreState(state []byte) error {
	if len(state) > 0 && state[0] == '{' {
		return h.restoreJSONState(state)
	}
	body, ok := bytes.CutPrefix(state, snapshotMagic)
	if !ok || len(body) < 4 {
		return fmt.Errorf("%w: snapshot: unknown format", ErrCorruptJournal)
	}
	if crc32.Checksum(body[4:], castagnoli) != binary.LittleEndian.Uint32(body) {
		return fmt.Errorf("%w: snapshot: checksum mismatch", ErrCorruptJournal)
	}
	r := frameReader{b: body[4:]}
	reg := r.next(r.uvarint())
	if r.err != nil {
		return r.err
	}
	var st registryState
	if err := json.Unmarshal(reg, &st); err != nil {
		return fmt.Errorf("%w: snapshot registry: %w", ErrCorruptJournal, err)
	}
	h.restoreRegistry(st)
	// Accept only the registry encodeState would write for what was just
	// restored: with the checksum this keeps the image canonical.
	if again, err := json.Marshal(h.registry()); err != nil || !bytes.Equal(again, reg) {
		return fmt.Errorf("%w: snapshot registry is not in canonical form", ErrCorruptJournal)
	}
	var prev string
	tasks := r.uvarint()
	for i := uint64(0); i < tasks && r.err == nil; i++ {
		id := string(r.next(r.uvarint()))
		count, records := r.uvarint(), r.uvarint()
		if r.err != nil {
			break
		}
		if i > 0 && id <= prev {
			return fmt.Errorf("%w: snapshot: task %q out of order", ErrCorruptJournal, id)
		}
		prev = id
		// Every upload costs at least one length byte: bound the count
		// before allocating for it.
		if count == 0 || count > uint64(len(r.b)) {
			return fmt.Errorf("%w: snapshot: task %q claims %d uploads", ErrCorruptJournal, id, count)
		}
		lens := make([]uint64, count)
		for k := range lens {
			lens[k] = r.uvarint()
		}
		t := &heldUploads{raw: make([][]byte, count), records: int(records)}
		for k, n := range lens {
			t.raw[k] = r.next(n)
		}
		h.uploads[id] = t
	}
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%w: snapshot: %d trailing bytes", ErrCorruptJournal, len(r.b))
	}
	return r.err
}

// restoreJSONState restores a snapshot written by an earlier release as one
// JSON object, holding each of its uploads as the bytes an admission would
// encode.
func (h *Hive) restoreJSONState(state []byte) error {
	var st struct {
		registryState
		Uploads map[string][]transport.Upload `json:"uploads"`
	}
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("%w: snapshot: %w", ErrCorruptJournal, err)
	}
	h.restoreRegistry(st.registryState)
	for taskID, ups := range st.Uploads {
		for i := range ups {
			raw, err := json.Marshal(&ups[i])
			if err != nil {
				return fmt.Errorf("%w: snapshot upload: %w", ErrCorruptJournal, err)
			}
			h.hold(taskID, raw, len(ups[i].Records))
		}
	}
	return nil
}

// frameReader walks the framed part of a snapshot. The first malformed
// field sets err; every later read then returns zero values.
type frameReader struct {
	b   []byte
	err error
}

// uvarint reads a minimally encoded uvarint.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > math.MaxInt || n != uvarintLen(int(v)) {
		r.err = fmt.Errorf("%w: snapshot: bad length field", ErrCorruptJournal)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// next returns the next n bytes, capped so that appending to them can never
// overwrite what follows.
func (r *frameReader) next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("%w: snapshot: truncated", ErrCorruptJournal)
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// uvarintLen is the size of binary.AppendUvarint's encoding of x >= 0.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
