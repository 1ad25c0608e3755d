package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"goat/internal/harness"
)

// Journal is the coordinator's resumable checkpoint: an append-only file
// with one JSON line per completed cell, preceded by a header line that
// pins the job fingerprint. A coordinator restarted onto the same journal
// readmits every recorded cell as done and never re-runs it; a journal
// written for a different job is rejected outright.
//
// Durability model: records are written straight to the file descriptor
// (no userspace buffering), so a coordinator crash loses nothing already
// appended; a torn final line from a mid-write kill is detected and
// ignored on replay.
type Journal struct {
	f    *os.File
	path string
}

// journalHeader is the first line of a journal file.
type journalHeader struct {
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
}

// journalRecord is one completed-cell line.
type journalRecord struct {
	Seq  int          `json:"seq"`
	Cell harness.Cell `json:"cell"`
}

// OpenJournal opens (or creates) the checkpoint journal for a job with
// the given fingerprint and matrix size, returning the journal positioned
// for appending plus every cell already checkpointed in it. Duplicate and
// out-of-range records are ignored, as is a torn trailing line.
func OpenJournal(path, fingerprint string, cells int) (*Journal, map[int]harness.Cell, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	done := map[int]harness.Cell{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fabric: reading journal %s: %w", path, err)
		}
		// Fresh (or empty) journal: stamp the header.
		hdr, err := json.Marshal(journalHeader{Fingerprint: fingerprint, Cells: cells})
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fabric: initializing journal %s: %w", path, err)
		}
		return &Journal{f: f, path: path}, done, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: journal %s has a malformed header: %w", path, err)
	}
	if hdr.Fingerprint != fingerprint {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: journal %s belongs to a different job (fingerprint %s, want %s)",
			path, hdr.Fingerprint, fingerprint)
	}
	if hdr.Cells != cells {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: journal %s records a %d-cell matrix, want %d", path, hdr.Cells, cells)
	}
	// Replay: every parseable record marks its cell done. The byte offset
	// of the last fully parseable line bounds the valid prefix; anything
	// after it (a torn tail) is truncated before appending resumes.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	line, err := r.ReadBytes('\n') // header, already validated
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: journal %s: header line unterminated", path)
	}
	valid := int64(len(line))
	for {
		line, err = r.ReadBytes('\n')
		if err != nil && len(line) == 0 {
			break
		}
		var rec journalRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil || err != nil {
			// Torn or corrupt tail: stop replay here; the valid prefix
			// stands and the tail is overwritten by future appends.
			break
		}
		valid += int64(len(line))
		if rec.Seq < 0 || rec.Seq >= cells {
			continue
		}
		if _, dup := done[rec.Seq]; dup {
			continue
		}
		done[rec.Seq] = rec.Cell
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: truncating journal tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, done, nil
}

// Append checkpoints one completed cell.
func (j *Journal) Append(seq int, c harness.Cell) error {
	b, err := json.Marshal(journalRecord{Seq: seq, Cell: c})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("fabric: appending to journal %s: %w", j.path, err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
