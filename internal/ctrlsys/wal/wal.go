// Package wal is the service node's write-ahead journal: the artifact
// that turns the control system into a crash-only program. Every
// scheduler state transition — job submit/start/complete, partition
// alloc/boot/free, checkpoint commit, midplane strike/blacklist — is
// appended as a length-prefixed, checksummed, LSN-ordered record to a
// segmented log on the service node's ION filesystem before the
// transition is considered to have happened. Recovery is then replay: a
// fresh service node reads the journal back and reconstructs exactly the
// durable prefix of the dead one's state.
//
// The format is deliberately boring, because recovery code runs when
// everything else has already gone wrong. A record on the wire is
//
//	u32 length | u32 fnv32a(payload) | payload
//	payload  = u8 version | u8 kind | u64 lsn | body
//
// and a journal is a directory of segment files seg-NNNNNN.wal, rotated
// when the active segment passes the size threshold. New segments are
// created via write-to-temp + rename, so rotation is atomic: a crash
// between the two leaves only an ignorable .tmp. Within a segment,
// appends model an in-place file append, which is where a crash can tear
// the final record.
//
// Replay is strict everywhere strictness is safe and tolerant in the one
// place it must not be: a record with a bad checksum, an out-of-order
// LSN, a hostile length, or a truncation in the middle of the journal is
// corruption and rejects the whole journal — but a torn final record in
// the final segment is the expected signature of a crash mid-append
// (the record never committed) and is silently dropped; everything
// before it replays. Open repairs the tear in place (again via
// temp+rename) before appending anything new, so a once-torn segment can
// never later masquerade as mid-journal corruption.
package wal

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/wire"
)

// Wire-format constants.
const (
	recVersion = 1

	// headerBytes is the length + checksum prefix.
	headerBytes = 8
	// prefixBytes is the version/kind/LSN part of the payload.
	prefixBytes = 10

	// MaxBody bounds a record body; a hostile length prefix must not
	// drive a huge allocation during replay.
	MaxBody = 4 << 20

	// DefaultSegmentBytes is the rotation threshold when the caller
	// passes 0.
	DefaultSegmentBytes = 64 << 10
)

// Record is one journal entry. Kind is opaque to the WAL — the control
// system assigns meaning; the WAL guarantees only ordering, integrity and
// durability.
type Record struct {
	LSN  uint64
	Kind uint8
	Body []byte
}

// Journal is an open, appendable log. All methods are single-threaded,
// like the service node that owns it.
type Journal struct {
	fsys     *fs.FS
	dir      string
	segBytes int

	seg     int    // active segment number (1-based)
	active  []byte // active segment contents, mirroring the durable file
	started bool   // active segment file exists on the store

	next    uint64 // next LSN to assign
	records int    // records durable across all segments
	bytes   int    // bytes durable across all segments
	sealed  int    // sealed (non-active) segment count
	torn    int    // torn records dropped by Open
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.wal", n) }

// Create initializes an empty journal in dir (created if absent). The
// directory must not already contain segments; use Open to resume one.
func Create(fsys *fs.FS, dir string, segBytes int) (*Journal, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	fsys.MustMkdirAll(dir)
	names, errno := fsys.Readdir("/", dir, fs.Root)
	if errno != kernel.OK {
		return nil, fmt.Errorf("wal: readdir %s: errno %d", dir, errno)
	}
	for _, n := range names {
		if isSegment(n) {
			return nil, fmt.Errorf("wal: %s already holds segment %s; use Open", dir, n)
		}
	}
	return &Journal{fsys: fsys, dir: dir, segBytes: segBytes, seg: 1, next: 1}, nil
}

// Open replays an existing journal (creating it if the directory is
// empty), repairs a torn tail if the final segment has one, seals every
// existing segment, and returns the journal positioned to append into a
// fresh segment, together with the replayed records. Leftover .tmp files
// from a crash mid-rotation are ignored: their contents never committed.
func Open(fsys *fs.FS, dir string, segBytes int) (*Journal, []Record, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	fsys.MustMkdirAll(dir)
	names, errno := fsys.Readdir("/", dir, fs.Root)
	if errno != kernel.OK {
		return nil, nil, fmt.Errorf("wal: readdir %s: errno %d", dir, errno)
	}
	var segs []string
	for _, n := range names {
		if isSegment(n) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)

	j := &Journal{fsys: fsys, dir: dir, segBytes: segBytes, next: 1}
	var all []Record
	for i, name := range segs {
		path := dir + "/" + name
		blob, errno := fsys.ReadFile(path, fs.Root)
		if errno != kernel.OK {
			return nil, nil, fmt.Errorf("wal: read %s: errno %d", path, errno)
		}
		final := i == len(segs)-1
		recs, clean, torn, err := Parse(blob, j.next, final)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %v", name, err)
		}
		if torn > 0 {
			// Repair the tear in place, atomically, so this segment can
			// never later read as mid-journal corruption.
			tmp := path + ".tmp"
			if errno := fsys.WriteFile(tmp, blob[:clean], 0644, fs.Root); errno != kernel.OK {
				return nil, nil, fmt.Errorf("wal: repair %s: errno %d", path, errno)
			}
			if errno := fsys.Rename("/", tmp, path, fs.Root); errno != kernel.OK {
				return nil, nil, fmt.Errorf("wal: repair rename %s: errno %d", path, errno)
			}
			j.torn += torn
		}
		all = append(all, recs...)
		j.next += uint64(len(recs))
		j.bytes += clean
		j.records += len(recs)
	}
	j.sealed = len(segs)
	j.seg = len(segs) + 1
	return j, all, nil
}

func isSegment(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal")
}

// EncodeRecord renders one record in wire format. Encoding is canonical:
// Parse of the result yields exactly (lsn, kind, body), and re-encoding a
// parsed record reproduces the input bytes.
func EncodeRecord(lsn uint64, kind uint8, body []byte) []byte {
	p := wire.NewEncoder(prefixBytes + len(body))
	p.U8(recVersion)
	p.U8(kind)
	p.U64(lsn)
	payload := append(p.Bytes(), body...)
	h := fnv.New32a()
	h.Write(payload)
	e := wire.NewEncoder(headerBytes + len(payload))
	e.U32(uint32(len(payload)))
	e.U32(h.Sum32())
	return append(e.Bytes(), payload...)
}

// Append commits one record and returns its LSN. The active segment file
// is (re)written in full — the simulated store's version of an in-place
// append — and a new segment is cut first when the active one is past the
// rotation threshold.
func (j *Journal) Append(kind uint8, body []byte) (uint64, error) {
	if len(body) > MaxBody {
		return 0, fmt.Errorf("wal: record body %d bytes exceeds cap %d", len(body), MaxBody)
	}
	rec := EncodeRecord(j.next, kind, body)
	if j.started && len(j.active)+len(rec) > j.segBytes {
		// Seal the active segment (its file is already complete) and cut
		// a new one.
		j.sealed++
		j.seg++
		j.active = nil
		j.started = false
	}
	j.active = append(j.active, rec...)
	if err := j.writeActive(); err != nil {
		return 0, err
	}
	lsn := j.next
	j.next++
	j.records++
	j.bytes += len(rec)
	return lsn, nil
}

// AppendTorn models a crash in the middle of an append: a strict prefix
// of the record's bytes reaches the store and the record never commits.
// The journal must not be used afterwards — the owner is dead; the next
// Open will drop the tear and repair the segment.
func (j *Journal) AppendTorn(kind uint8, body []byte) error {
	rec := EncodeRecord(j.next, kind, body)
	cut := len(rec) / 2
	if cut < 1 {
		cut = 1
	}
	j.active = append(j.active, rec[:cut]...)
	return j.writeActive()
}

func (j *Journal) writeActive() error {
	path := j.dir + "/" + segName(j.seg)
	if !j.started {
		// First write of a fresh segment goes through temp + rename so
		// rotation is atomic on the store.
		tmp := path + ".tmp"
		if errno := j.fsys.WriteFile(tmp, j.active, 0644, fs.Root); errno != kernel.OK {
			return fmt.Errorf("wal: write %s: errno %d", tmp, errno)
		}
		if errno := j.fsys.Rename("/", tmp, path, fs.Root); errno != kernel.OK {
			return fmt.Errorf("wal: rename %s: errno %d", path, errno)
		}
		j.started = true
		return nil
	}
	if errno := j.fsys.WriteFile(path, j.active, 0644, fs.Root); errno != kernel.OK {
		return fmt.Errorf("wal: write %s: errno %d", path, errno)
	}
	return nil
}

// NextLSN returns the LSN the next Append will commit.
func (j *Journal) NextLSN() uint64 { return j.next }

// Records returns the number of durable records (replayed + appended).
func (j *Journal) Records() int { return j.records }

// Bytes returns the durable journal size across all segments.
func (j *Journal) Bytes() int { return j.bytes }

// Segments returns the segment count, including the active one if it has
// been started.
func (j *Journal) Segments() int {
	if j.started {
		return j.sealed + 1
	}
	return j.sealed
}

// Torn returns how many torn tail records Open dropped and repaired.
func (j *Journal) Torn() int { return j.torn }

// Parse decodes one segment's raw contents. firstLSN is the LSN the
// segment's first record must carry; final marks the journal's last
// segment, where a torn trailing record is tolerated (dropped, counted in
// torn) rather than rejected. clean is the byte length of the valid
// prefix. Everything else — bad version, bad checksum, hostile length,
// LSN out of order, or truncation in a non-final segment — is an error.
func Parse(b []byte, firstLSN uint64, final bool) (recs []Record, clean int, torn int, err error) {
	off := 0
	want := firstLSN
	for off < len(b) {
		if len(b)-off < headerBytes {
			if final {
				return recs, off, 1, nil
			}
			return nil, 0, 0, fmt.Errorf("wal: truncated record header at offset %d", off)
		}
		d := wire.NewDecoder("wal: record", b[off:])
		length, sum := int(d.U32()), d.U32()
		if length < prefixBytes || length > MaxBody+prefixBytes {
			return nil, 0, 0, fmt.Errorf("wal: record at offset %d claims %d payload bytes", off, length)
		}
		if off+headerBytes+length > len(b) {
			if final {
				return recs, off, 1, nil
			}
			return nil, 0, 0, fmt.Errorf("wal: truncated record payload at offset %d", off)
		}
		payload := b[off+headerBytes : off+headerBytes+length]
		h := fnv.New32a()
		h.Write(payload)
		if h.Sum32() != sum {
			return nil, 0, 0, fmt.Errorf("wal: checksum mismatch at offset %d", off)
		}
		version, kind, lsn := d.U8(), d.U8(), d.U64()
		if version != recVersion {
			return nil, 0, 0, fmt.Errorf("wal: unsupported record version %d at offset %d", version, off)
		}
		if lsn != want {
			return nil, 0, 0, fmt.Errorf("wal: LSN %d at offset %d, want %d", lsn, off, want)
		}
		body := make([]byte, length-prefixBytes)
		copy(body, payload[prefixBytes:])
		recs = append(recs, Record{LSN: lsn, Kind: kind, Body: body})
		want++
		off += headerBytes + length
	}
	return recs, off, 0, nil
}
