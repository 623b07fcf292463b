package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
)

// The result store is a JSON-Lines file of finished points, one record per
// line: what `disha-sweep -journal F` names and what `disha-serve -data-dir D`
// keeps in D/results.jsonl. Coordinator.OpenStore loads it into the result
// cache and from then on settleLocked appends one record per computed point,
// one write each, so a killed process loses at most the points in flight. A
// record is a result for one (key, seed) and is served under nothing else, so
// any number of sweeps, seeds and servers may share a file. Lines that are not
// records (a tail torn by a kill mid-write, another program's output) are
// skipped, and a later record for the same key wins.

// JournalRecord is one finished point, as stored on disk. (Files written
// before PR 25 also carry "attempts" and "elapsed_ms"; nothing reads them.)
type JournalRecord struct {
	Key   string          `json:"key"`
	Seed  uint64          `json:"seed"`
	Value json.RawMessage `json:"value"`
}

// ReadJournal loads every well-formed record from path, last record per key
// winning. A missing file is not an error (a sweep that never started has an
// empty store).
func ReadJournal(path string) (map[string]JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]JournalRecord{}, nil
		}
		return nil, fmt.Errorf("fabric: open result store: %w", err)
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
			continue // torn or foreign line; that point is computed again
		}
		out[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fabric: read result store: %w", err)
	}
	return out, nil
}

// openJournal opens the store file at path for appending (creating it if
// needed). Existing content is kept: what a run may take from it is decided
// per record, by (key, seed), not by who wrote the file.
func openJournal(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: open result store: %w", err)
	}
	// A kill mid-append leaves a last line with no newline. End it here, or
	// the next record would be glued to the torn one and skipped with it.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("fabric: open result store: %w", err)
			}
		}
	}
	return f, nil
}

// appendRecord writes one finished point to the store file as one line, in
// one write.
func appendRecord(f *os.File, key string, seed uint64, pr harness.PointResult) error {
	value, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(JournalRecord{Key: key, Seed: seed, Value: value})
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}
