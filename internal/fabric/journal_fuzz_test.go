package fabric

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"goat/internal/harness"
)

// FuzzJournalReplay feeds arbitrary bytes after a valid journal header
// and checks the replay contract a restarted coordinator relies on:
//
//   - opening never panics or fails on a well-formed header;
//   - every replayed seq lies in [0, cells);
//   - the file is cut to a newline-terminated prefix of its input;
//   - reopening replays the same cells and leaves the bytes unchanged;
//   - a cell appended after the reopen is replayed by the next open.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"seq":1,"cell":{"Bug":"torn`))
	f.Add([]byte("{\"seq\":0,\"cell\":{\"Bug\":\"a\"}}\nnot json\n{\"seq\":2,\"cell\":{}}\n"))
	f.Add([]byte("{\"seq\":-1,\"cell\":{}}\n{\"seq\":4,\"cell\":{}}\n{\"seq\":99,\"cell\":{}}\n"))
	f.Add([]byte("{\"seq\":2,\"cell\":{\"Bug\":\"a\"}}\n{\"seq\":2,\"cell\":{\"Bug\":\"b\"}}\n"))
	f.Add([]byte("{\"seq\":0,\"cell\":{\"Found\":true,\"MinExecs\":2,\"Verdict\":\"PDL-2\"}}\n{\"seq\":3,\"cell\":{\"Status\":2,\"Retries\":1}}\n"))

	const fp, cells = "00000000feedface", 4
	hdr, err := json.Marshal(journalHeader{Fingerprint: fp, Cells: cells})
	if err != nil {
		f.Fatal(err)
	}
	hdr = append(hdr, '\n')

	f.Fuzz(func(t *testing.T, tail []byte) {
		input := append(append([]byte{}, hdr...), tail...)
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() map[int]harness.Cell {
			t.Helper()
			j, done, err := OpenJournal(path, fp, cells)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			return done
		}
		read := func() []byte {
			t.Helper()
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		done := open()
		for seq := range done {
			if seq < 0 || seq >= cells {
				t.Fatalf("replayed out-of-range seq %d", seq)
			}
		}
		cut := read()
		if len(cut) < len(hdr) || !bytes.HasPrefix(input, cut) || cut[len(cut)-1] != '\n' {
			t.Fatalf("journal cut to %q, not a newline-terminated prefix of %q", cut, input)
		}

		again := open()
		if !reflect.DeepEqual(done, again) {
			t.Fatalf("reopen replayed %v, first open %v", again, done)
		}
		if b := read(); !bytes.Equal(b, cut) {
			t.Fatalf("reopen changed the journal: %q -> %q", cut, b)
		}

		seq := -1
		for s := 0; s < cells; s++ {
			if _, ok := done[s]; !ok {
				seq = s
				break
			}
		}
		if seq < 0 {
			return // every cell already replayed: an append would be a duplicate
		}
		cell := harness.Cell{Bug: "moby_28462", Tool: "goat-D2", Found: true, MinExecs: 3, Verdict: "PDL-1"}
		j, _, err := OpenJournal(path, fp, cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(seq, cell); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after := open()
		if got, ok := after[seq]; !ok || got != cell {
			t.Fatalf("appended cell %d replayed as %+v (present %v)", seq, got, ok)
		}
		if len(after) != len(done)+1 {
			t.Fatalf("after append replayed %d cells, want %d", len(after), len(done)+1)
		}
	})
}
