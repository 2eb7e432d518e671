package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// intactPrefix is the replay contract, spelled out independently of
// Log.replay: the records that form the intact prefix of a log file — each
// frame complete, its CRC valid, its payload a record with the next LSN —
// and the byte length of that prefix. ok is false when the file is not a
// log at all.
func intactPrefix(data []byte) (rows []TableRow, n int, ok bool) {
	if len(data) < len(logMagic) {
		return nil, 0, bytes.Equal(data, logMagic[:len(data)])
	}
	if !bytes.Equal(data[:4], logMagic[:]) {
		return nil, 0, false
	}
	n = len(logMagic)
	for {
		rest := data[n:]
		if len(rest) < 8 {
			return rows, n, true
		}
		ln := int(binary.LittleEndian.Uint32(rest))
		if ln > len(rest)-8 {
			return rows, n, true
		}
		payload := rest[8 : 8+ln]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			return rows, n, true
		}
		var rec logRecord
		if json.Unmarshal(payload, &rec) != nil || rec.LSN != int64(len(rows))+1 {
			return rows, n, true
		}
		rows = append(rows, rec.TableRow)
		n += 8 + ln
	}
}

// seedLog returns the bytes of a log holding rows, written by Log.Append.
func seedLog(f *testing.F, batches ...[]TableRow) []byte {
	path := filepath.Join(f.TempDir(), "seed.mlog")
	lg, err := OpenLog(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range batches {
		if _, err := lg.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	lg.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLogReplay opens arbitrary file bytes as an append log. Recovery must
// never panic; it must keep exactly the intact CRC-valid prefix as the log
// (head and rows), truncate the file to that prefix, and reopening the
// truncated file must give the same head and rows with nothing more cut.
func FuzzLogReplay(f *testing.F) {
	a := twoColRow("a.example", [][2]string{{"x", "1"}, {"y", "2"}})
	b := twoColRow("b.example", [][2]string{{"p", "q"}})
	full := seedLog(f, []TableRow{a}, []TableRow{b, a})
	f.Add([]byte{})
	f.Add(logMagic[:2])
	f.Add(full)
	f.Add(full[:len(full)-3])                                   // torn payload
	f.Add(append(append([]byte{}, full...), 0x07, 0, 0))        // torn frame header
	f.Add(append(append([]byte{}, full[:40]...), full[41:]...)) // corrupt record
	f.Add([]byte("plain text"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.mlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantRows, n, isLog := intactPrefix(data)
		lg, err := OpenLog(path)
		if !isLog {
			if err == nil {
				lg.Close()
				t.Fatal("OpenLog accepted a file without the log magic")
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatal("OpenLog modified a file it refused")
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		head, rows, cut := lg.Head(), lg.Rows(), lg.Truncated()
		lg.Close()
		if head != int64(len(wantRows)) || len(wantRows) > 0 && !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("head %d with %d rows, want the intact prefix of %d records", head, len(rows), len(wantRows))
		}
		size := max(n, len(logMagic))
		if want := int64(len(data) - n); cut != want {
			t.Fatalf("truncated %d bytes, want %d", cut, want)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size || !bytes.Equal(got[:n], data[:n]) || !bytes.Equal(got[:4], logMagic[:]) {
			t.Fatalf("file is %d bytes after recovery, want the %d-byte intact prefix", len(got), size)
		}

		re, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if re.Head() != head || !reflect.DeepEqual(re.Rows(), rows) || re.Truncated() != 0 {
			t.Fatalf("reopen: head %d, %d rows, %d bytes cut; want head %d, same rows, nothing cut",
				re.Head(), len(re.Rows()), re.Truncated(), head)
		}
	})
}
