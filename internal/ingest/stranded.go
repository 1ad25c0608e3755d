// Stranded-goroutine analysis over an ingested native window.
//
// A window has no settle point: "blocked at the end of the trace" is
// the observable fact, and whether that is a leak depends on
// provenance. A long-lived worker parked on its job channel is idle; a
// per-request goroutine parked on a send nobody will receive is
// stranded. The classification below uses the goroutine-tree provenance
// the converter reconstructed — creation site, root function, wake
// history, park duration — to separate the two, which is what keeps the
// report CI-gateable instead of noisy.
package ingest

import (
	"fmt"
	"sort"

	"goat/internal/trace"
)

// Stranded is one goroutine flagged as likely leaked at window end.
type Stranded struct {
	G          trace.GoID
	Name       string            // root function
	Reason     trace.BlockReason // why it is parked
	File       string            // block site
	Line       int
	CreateFile string // go-statement site ("" for orphans)
	CreateLine int
	BlockedNs  int64 // park duration at window end
	Wakes      int   // wakes observed during the window
	Siblings   int   // goroutines sharing this signature (incl. itself)
}

// Signature is the stable identity of a stranded-goroutine class:
// goroutines are ephemeral (IDs differ run to run) but the code paths
// that strand them are not. Two runs are compared signature-wise. The
// format is trace.StrandSig — shared with the streaming leak detector,
// so a leak found in a simulated service kernel and the same leak in a
// native capture carry identical signatures.
func (s Stranded) Signature() string {
	return trace.StrandSig{
		Name: s.Name, Reason: s.Reason,
		File: s.File, Line: s.Line,
		CreateFile: s.CreateFile, CreateLine: s.CreateLine,
	}.String()
}

func (s Stranded) String() string {
	site := fmt.Sprintf("%s:%d", trace.TrimPath(s.File), s.Line)
	created := "pre-existing"
	if s.CreateFile != "" {
		created = fmt.Sprintf("created at %s:%d", trace.TrimPath(s.CreateFile), s.CreateLine)
	}
	return fmt.Sprintf("g%d %s blocked on %s at %s (%s, parked %.0fms, %d wake(s))",
		s.G, s.Name, s.Reason, site, created, float64(s.BlockedNs)/1e6, s.Wakes)
}

// StrandedOpts tunes the classifier.
type StrandedOpts struct {
	// IncludeWorkers reports long-lived-worker-shaped goroutines too
	// (normally suppressed, see trace.WorkerShaped).
	IncludeWorkers bool
}

// StrandedGoroutines classifies the window's end-state. The suppression
// rules, in order:
//
//   - system goroutines (runtime infrastructure) never count;
//   - goroutines parked on sleep, in a syscall, on network I/O, or with
//     no reason are idle (or making kernel-side progress), not stuck
//     (trace.CanStrand);
//   - worker-shaped goroutines — orphans or receive/select-parked
//     goroutines that were woken during the window — are presumed to be
//     long-lived pools waiting for more work (the classic native-trace
//     false positive), unless IncludeWorkers asks for them
//     (trace.WorkerShaped).
//
// Everything else blocked at window end is reported, grouped and
// ordered by signature so output is deterministic.
func (r *Run) StrandedGoroutines(opts StrandedOpts) []Stranded {
	// Each entry's signature is rendered once: it is both the sort key
	// and the sibling-group key.
	type entry struct {
		sig string
		s   Stranded
	}
	var es []entry
	for _, gi := range r.Gs {
		if !gi.Blocked || gi.System || gi.Ended || !trace.CanStrand(gi.Reason) {
			continue
		}
		if !opts.IncludeWorkers && trace.WorkerShaped(gi.Reason, gi.Orphan, gi.Wakes) {
			continue
		}
		s := Stranded{
			G: gi.ID, Name: gi.Name, Reason: gi.Reason,
			File: gi.File, Line: gi.Line,
			CreateFile: gi.CreateFile, CreateLine: gi.CreateLine,
			BlockedNs: gi.BlockedNs, Wakes: gi.Wakes,
		}
		es = append(es, entry{sig: s.Signature(), s: s})
	}
	if len(es) == 0 {
		return nil
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].sig != es[j].sig {
			return es[i].sig < es[j].sig
		}
		return es[i].s.G < es[j].s.G
	})
	// Sibling counts: goroutines sharing a signature are adjacent now.
	out := make([]Stranded, len(es))
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].sig == es[i].sig {
			j++
		}
		for k := i; k < j; k++ {
			out[k] = es[k].s
			out[k].Siblings = j - i
		}
		i = j
	}
	return out
}
