// Shared provenance identity for blocked-goroutine classification.
//
// Both the native-window analysis (internal/ingest) and the streaming
// leak detector (internal/detect) decide whether a parked goroutine is
// a stranded leak or an idle worker, and both report offenders by a
// stable class identity rather than by ephemeral goroutine ID. The
// signature format, the idle-park rule and the worker-suppression rule
// live here so the two classifiers cannot drift: a leak planted in a
// simulated service kernel and the same leak captured from a native run
// produce the same signature string.
package trace

import (
	"fmt"
	"strings"
)

// StrandSig is the stable identity of a stranded-goroutine class:
// goroutines are ephemeral (IDs differ run to run) but the code paths
// that strand them are not. Two runs — or two detectors — are compared
// signature-wise.
type StrandSig struct {
	Name       string      // root function (or creation name under the simulator)
	Reason     BlockReason // why it is parked
	File       string      // block site
	Line       int
	CreateFile string // go-statement site ("" for orphans / the main goroutine)
	CreateLine int
}

// String renders the canonical signature form
// "name|reason|file:line|createfile:createline" with paths trimmed.
func (s StrandSig) String() string {
	return fmt.Sprintf("%s|%s|%s:%d|%s:%d",
		s.Name, s.Reason, TrimPath(s.File), s.Line, TrimPath(s.CreateFile), s.CreateLine)
}

// TrimPath keeps the last two path components — enough to identify the
// site, stable across checkouts and build machines.
func TrimPath(p string) string {
	if p == "" {
		return ""
	}
	parts := strings.Split(p, "/")
	if len(parts) <= 2 {
		return p
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// CanStrand reports whether a goroutine parked for reason can be stranded.
// Sleeping, in a syscall, on network I/O or with no recorded reason it is
// idle or making kernel-side progress, not stuck.
func CanStrand(reason BlockReason) bool {
	switch reason {
	case BlockSleep, BlockNone, BlockNet, BlockSyscall:
		return false
	}
	return true
}

// WorkerShaped reports whether a blocked goroutine matches the
// long-lived-worker pattern: parked on the *consuming* end of a
// rendezvous (receive, select, cond-wait) after having been productive
// (woken at least once in the observation window), or pre-existing the
// window entirely (orphan). Senders are never worker-shaped — a parked
// send means a value nobody is taking, which is a leak whatever the
// goroutine's history.
func WorkerShaped(reason BlockReason, orphan bool, wakes int) bool {
	switch reason {
	case BlockRecv, BlockSelect, BlockCond:
	default:
		return false
	}
	return orphan || wakes > 0
}
