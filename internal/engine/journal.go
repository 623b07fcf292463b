package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// The checkpoint journal is a JSON-Lines file of completed job results. The
// engine appends one record per success, flushing per line so that a killed
// sweep loses at most the job in flight; the next run on the same file
// replays it, skips every job recorded under the same (key, seed) and serves
// the recorded values instead. Records that match no current job are
// ignored, torn trailing lines (from a kill mid-write) are skipped, and a
// later record for the same key wins, so a journal may be shared by any
// number of sweeps and their retries. fabric.Coordinator.OpenStore keeps its
// result cache in the same file format, so the two are interchangeable.

// JournalRecord is one completed job, as stored on disk.
type JournalRecord struct {
	Key       string          `json:"key"`
	Seed      uint64          `json:"seed"`
	Attempts  int             `json:"attempts"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Value     json.RawMessage `json:"value"`
}

// ReadJournal loads every well-formed record from path, last record per key
// winning. A missing file is not an error (a sweep that never started has an
// empty journal).
func ReadJournal(path string) (map[string]JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]JournalRecord{}, nil
		}
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	defer f.Close()
	out := make(map[string]JournalRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" || rec.Value == nil {
			continue // torn or foreign line; recompute that job instead
		}
		out[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: read journal: %w", err)
	}
	return out, nil
}

// Journal appends records to the journal file, one flushed line each.
type Journal struct {
	f *os.File
}

// OpenJournal opens path for appending (creating it if needed). Existing
// content is kept: what a run may take from it is decided per record, by
// (key, seed), not by who wrote the file.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	// A kill mid-append leaves a last line with no newline. End it here, or
	// the next record would be glued to the torn one and skipped with it.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("engine: open journal: %w", err)
			}
		}
	}
	return &Journal{f: f}, nil
}

// Append writes one record and flushes it to the OS.
func (w *Journal) Append(rec JournalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("engine: encode journal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("engine: write journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (w *Journal) Close() error { return w.f.Close() }
