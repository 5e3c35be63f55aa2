package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// journalMagic opens every journal file; a version bump invalidates old
// journals wholesale (like the cache footer's). BGJL2 journals hold BGC2
// cache entries.
const journalMagic = "BGJL2\n"

// JournalMeta is the journal's first block: everything needed to decide
// whether a journal belongs to the sweep being resumed, and to rebuild
// the grid when cmd/report renders tables straight from the file. The
// coordinator refuses to resume a journal whose meta differs from its
// own configuration — a journal written under other knobs would replay
// results the current sweep would not produce.
type JournalMeta struct {
	Version int `json:"version"`
	// Grid names the sweep (cmd/sweepd's -mode); Cells lists its grid
	// points in order, so report -journal can rebuild the grid without
	// re-deriving it.
	Grid  string   `json:"grid"`
	Cells []string `json:"cells"`
	// Salt is the cache salt every journaled key was derived under.
	Salt string `json:"salt"`
	// Sweep knobs, mirrored from the harness config.
	Duration     time.Duration `json:"duration"`
	Seed         int64         `json:"seed"`
	Replications int           `json:"replications"`
	// Adaptive knobs (zero CITarget = fixed replication).
	CITarget float64 `json:"ci_target,omitempty"`
	CIMetric string  `json:"ci_metric,omitempty"`
	MaxReps  int     `json:"max_reps,omitempty"`
}

// journalVersion is the current JournalMeta.Version.
const journalVersion = 1

// canonical renders the meta as comparison-stable bytes.
func (m JournalMeta) canonical() string {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("fabric: journal meta marshal: %v", err))
	}
	return string(b)
}

// JournalRecord is one completed run: its grid position, content-address
// key, and either the encoded result entry (the cache byte format) or
// the run's error string. Records are append-only and content-addressed,
// so replaying a journal is idempotent and order-independent within a
// cell.
type JournalRecord struct {
	Cell string
	Rep  int
	Key  string
	// Entry is nil when Err is set. Errors are sticky across resumes:
	// a journaled failure replays as a failure (delete the journal, or
	// the offending record's sweep config, to retry).
	Entry []byte
	Err   string
}

// Journal is the append side: an open journal file streaming completed
// runs. Appends are framed ([u32 length, u32 CRC-32 (IEEE), payload]),
// flushed and synced per record, so a killed coordinator loses at most
// the record being written — and the CRC detects that torn tail on
// resume.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// CreateJournal starts a fresh journal at path (truncating any previous
// file), writing the magic and the meta block.
func CreateJournal(path string, meta JournalMeta) (*Journal, error) {
	meta.Version = journalVersion
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: create journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if _, err := j.w.WriteString(journalMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: create journal: %w", err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: journal meta: %w", err)
	}
	if err := j.appendBlock(metaJSON); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournal opens an existing journal for resume: it verifies the meta
// matches the sweep being resumed, reads every intact record, truncates
// a torn tail (a partial record from a killed coordinator), and returns
// the journal positioned for appending.
func OpenJournal(path string, want JournalMeta) (*Journal, []JournalRecord, error) {
	want.Version = journalVersion
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: open journal: %w", err)
	}
	meta, recs, intact, err := readJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if meta.canonical() != want.canonical() {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: journal %s was written by a different sweep configuration (journal: %s; resuming: %s)",
			path, meta.canonical(), want.canonical())
	}
	// Drop the torn tail so appends start at a record boundary.
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: truncate journal tail: %w", err)
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: seek journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, recs, nil
}

// ReadJournal reads a journal without opening it for append — the
// cmd/report -journal path. A torn tail is tolerated (the journal may
// belong to a live or killed coordinator); intact records up to it are
// returned.
func ReadJournal(path string) (JournalMeta, []JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return JournalMeta{}, nil, fmt.Errorf("fabric: read journal: %w", err)
	}
	defer f.Close()
	meta, recs, _, err := readJournal(f)
	return meta, recs, err
}

// readJournal parses magic, meta and records, returning the byte offset
// of the last intact record's end. Framing damage past the meta block is
// a torn tail, not an error.
func readJournal(f *os.File) (JournalMeta, []JournalRecord, int64, error) {
	r := bufio.NewReader(f)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != journalMagic {
		return JournalMeta{}, nil, 0, fmt.Errorf("fabric: not a journal file (bad magic)")
	}
	offset := int64(len(journalMagic))
	metaPayload, n, err := readBlock(r)
	if err != nil {
		return JournalMeta{}, nil, 0, fmt.Errorf("fabric: journal meta block: %w", err)
	}
	offset += n
	var meta JournalMeta
	if err := json.Unmarshal(metaPayload, &meta); err != nil {
		return JournalMeta{}, nil, 0, fmt.Errorf("fabric: journal meta: %w", err)
	}
	if meta.Version != journalVersion {
		return JournalMeta{}, nil, 0, fmt.Errorf("fabric: journal version %d (want %d)", meta.Version, journalVersion)
	}
	var recs []JournalRecord
	for {
		payload, n, err := readBlock(r)
		if err != nil {
			// EOF, a short frame, or a CRC failure: the torn tail.
			break
		}
		var rec JournalRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			break
		}
		offset += n
		recs = append(recs, rec)
	}
	return meta, recs, offset, nil
}

// readBlock reads one framed block, verifying its CRC, and returns the
// payload and the number of bytes consumed.
func readBlock(r io.Reader) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length > 1<<30 {
		return nil, 0, errors.New("fabric: journal block too large")
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errors.New("fabric: journal block checksum mismatch")
	}
	return payload, int64(8 + length), nil
}

// appendBlock frames, writes, flushes and syncs one payload.
func (j *Journal) appendBlock(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := j.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fabric: journal append: %w", err)
	}
	if _, err := j.w.Write(payload); err != nil {
		return fmt.Errorf("fabric: journal append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("fabric: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: journal sync: %w", err)
	}
	return nil
}

// Append streams one completed run into the journal.
func (j *Journal) Append(rec JournalRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return fmt.Errorf("fabric: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendBlock(buf.Bytes())
}

// Close flushes and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
