// Package ingest makes a served corpus mutable: a durable append log of
// ingested tables, and an ingestor that folds logged tables into the
// synthesis pipeline incrementally (pipeline.RunIncremental) and
// republishes the corpus through the registry's versioned activate
// path. Queries keep serving the previous version while a run is in
// flight; staleness (log head vs applied LSN) is always observable.
package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"mapsynth/internal/table"
)

// TableRow is one ingested table as it travels on the wire (one NDJSON line
// of POST /v1/corpora/{name}/tables) and in the append log.
type TableRow struct {
	Domain  string      `json:"domain,omitempty"`
	Title   string      `json:"title,omitempty"`
	Columns []ColumnRow `json:"columns"`
}

// ColumnRow is one column of an ingested table.
type ColumnRow struct {
	Name   string   `json:"name,omitempty"`
	Values []string `json:"values"`
}

// Validate rejects rows the pipeline could never use: no columns, or no
// values anywhere.
func (r *TableRow) Validate() error {
	if len(r.Columns) == 0 {
		return errors.New("table has no columns")
	}
	values := 0
	for _, c := range r.Columns {
		values += len(c.Values)
	}
	if values == 0 {
		return errors.New("table has no values")
	}
	return nil
}

// Table materializes the row as a corpus table with the given dense ID.
func (r *TableRow) Table(id int) *table.Table {
	t := &table.Table{ID: id, Domain: r.Domain, Title: r.Title}
	t.Columns = make([]table.Column, len(r.Columns))
	for i, c := range r.Columns {
		t.Columns[i] = table.Column{Name: c.Name, Values: c.Values}
	}
	return t
}

// logMagic opens every append-log file.
var logMagic = [4]byte{'M', 'L', 'G', '1'}

// logRecord is one framed log entry: the row plus its assigned LSN, kept
// explicit so a replayed log can assert its own integrity.
type logRecord struct {
	LSN int64 `json:"lsn"`
	TableRow
}

// Log is the durable append log of one corpus's ingested tables. Records
// are framed [u32 length][u32 crc32][json payload] after a 4-byte magic;
// appends are batched under one fsync; recovery truncates a torn tail
// instead of refusing to start. A Log with no backing file ("" path) is
// memory-only — same semantics, no durability.
type Log struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	rows      []TableRow
	head      int64
	truncated int64 // bytes dropped from a torn tail at recovery
}

// OpenLog opens (or creates) the append log at path, replaying every intact
// record into memory. An empty path returns a memory-only log.
func OpenLog(path string) (*Log, error) {
	l := &Log{path: path}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay reads the whole file, validating framing and per-record CRCs. The
// first torn or corrupt record ends the log: everything after it is a
// partial write from a crashed appender and is truncated away.
func (l *Log) replay() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	if len(data) < len(logMagic) && bytes.Equal(data, logMagic[:len(data)]) {
		// Empty, or a magic torn by a crash while the log was created:
		// start the log afresh.
		l.truncated = int64(len(data))
		if err := l.f.Truncate(0); err != nil {
			return err
		}
		if _, err := l.f.WriteAt(logMagic[:], 0); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		_, err = l.f.Seek(0, io.SeekEnd)
		return err
	}
	if len(data) < len(logMagic) || [4]byte(data[:4]) != logMagic {
		return fmt.Errorf("ingest: %s is not an append log (bad magic)", l.path)
	}
	off := int64(len(logMagic))
	buf := data[len(logMagic):]
	for len(buf) > 0 {
		if len(buf) < 8 {
			break // torn frame header
		}
		ln := binary.LittleEndian.Uint32(buf)
		crc := binary.LittleEndian.Uint32(buf[4:])
		if uint64(ln) > uint64(len(buf)-8) {
			break // torn payload
		}
		payload := buf[8 : 8+ln]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record: stop here, keep the intact prefix
		}
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.LSN != l.head+1 {
			break
		}
		l.rows = append(l.rows, rec.TableRow)
		l.head++
		off += int64(8 + ln)
		buf = buf[8+ln:]
	}
	if rest := int64(len(data)) - off; rest > 0 {
		l.truncated = rest
		if err := l.f.Truncate(off); err != nil {
			return err
		}
	}
	_, err = l.f.Seek(0, io.SeekEnd)
	return err
}

// Append assigns the next LSNs to rows, persists them under a single fsync,
// and returns the assigned LSNs in order. Rows are visible to Rows/Head
// only after the fsync — a crash can lose an unacknowledged batch but never
// acknowledge a lost one.
func (l *Log) Append(rows []TableRow) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := make([]int64, len(rows))
	var frame bytes.Buffer
	for i, r := range rows {
		lsn := l.head + int64(i) + 1
		lsns[i] = lsn
		payload, err := json.Marshal(logRecord{LSN: lsn, TableRow: r})
		if err != nil {
			return nil, err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		frame.Write(hdr[:])
		frame.Write(payload)
	}
	if l.f != nil {
		if _, err := l.f.Write(frame.Bytes()); err != nil {
			return nil, err
		}
		if err := l.f.Sync(); err != nil {
			return nil, err
		}
	}
	l.rows = append(l.rows, rows...)
	l.head += int64(len(rows))
	return lsns, nil
}

// Rows returns every logged row in LSN order. The returned slice is a
// stable snapshot: the log only ever appends.
func (l *Log) Rows() []TableRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rows[:len(l.rows):len(l.rows)]
}

// Head returns the highest assigned LSN (0 when empty).
func (l *Log) Head() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Truncated reports how many bytes of torn tail recovery dropped.
func (l *Log) Truncated() int64 { return l.truncated }

// Path returns the backing file path ("" for a memory-only log).
func (l *Log) Path() string { return l.path }

// Close closes the backing file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
