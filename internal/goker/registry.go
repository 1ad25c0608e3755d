// Package goker is the blocking-bug benchmark: 68 bug kernels modeled on
// the GoKer suite of GoBench, one per documented blocking bug of the nine
// open-source projects the paper evaluates on (cockroach, etcd, grpc,
// hugo, istio, kubernetes, moby, serving, syncthing).
//
// GoKer kernels are themselves simplified extractions of the original
// bugs; these kernels re-extract the same synchronization skeletons —
// double locks, AB-BA lock cycles, lock-vs-channel circular waits, missed
// condition signals, WaitGroup misuse, select/default races, misused
// contexts — onto the virtual runtime, preserving each bug's cause
// taxonomy (resource / communication / mixed deadlock), dominant symptom
// (partial or global deadlock, occasionally a crash), and crucially how
// *rare* the buggy interleaving is: deterministic bugs bite on any
// schedule, racy ones only when the scheduler preempts inside a specific
// window, which is what the delay-bound experiments measure.
package goker

import (
	"fmt"
	"sort"
	"strings"

	"goat/internal/sim"
)

// Cause is the paper's bug-cause taxonomy for blocking bugs.
type Cause uint8

const (
	// ResourceDeadlock: circular wait on locks (inherited from
	// Java/pthreads-style bugs).
	ResourceDeadlock Cause = iota
	// CommunicationDeadlock: misuse of (un)buffered channels.
	CommunicationDeadlock
	// MixedDeadlock: a goroutine holding a lock blocks on a channel while
	// the peer needs the lock.
	MixedDeadlock
)

var causeNames = [...]string{"resource", "communication", "mixed"}

// String returns the cause name.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Kernel is one reproducible bug scenario.
type Kernel struct {
	// ID is the GoKer bug identifier, e.g. "moby_28462".
	ID string
	// Project is the originating open-source project.
	Project string
	// Cause classifies the root cause.
	Cause Cause
	// Expect is the dominant symptom when the bug manifests:
	// "PDL" (partial deadlock / leak), "GDL" (global deadlock), or "CRASH".
	Expect string
	// Rare marks kernels whose buggy interleaving needs specific
	// preemptions (they may take many executions to manifest at D=0).
	Rare bool
	// Generated marks kernels produced by the kernel fuzzer rather than
	// ported from GoKer; GoKer() excludes them so the 68-kernel benchmark
	// stays pinned while the fuzz corpus grows.
	Generated bool
	// Description summarizes the original bug's mechanism.
	Description string
	// Main is the kernel entry point, run as the program's main goroutine.
	Main func(*sim.G)
}

var (
	kernels []Kernel
	byID    = map[string]int{}
)

// register adds a kernel to the suite; duplicate or malformed kernels are
// programming errors.
func register(k Kernel) {
	if err := Register(k); err != nil {
		panic("goker: " + err.Error())
	}
}

// Register adds a kernel to the registry at runtime. It is how the
// differential fuzzer promotes a shrunk reproducer into the suite: the
// registered kernel resolves through ByID and runs under `goat -bug`.
// Kernels registered this way should set Generated so the pinned GoKer
// benchmark set is unaffected.
func Register(k Kernel) error {
	if k.ID == "" || k.Project == "" || k.Main == nil {
		return fmt.Errorf("malformed kernel %+v", k)
	}
	switch k.Expect {
	case "PDL", "GDL", "CRASH":
	default:
		return fmt.Errorf("kernel %s has bad Expect %q", k.ID, k.Expect)
	}
	if _, dup := byID[k.ID]; dup {
		return fmt.Errorf("duplicate kernel %s", k.ID)
	}
	byID[k.ID] = len(kernels)
	kernels = append(kernels, k)
	return nil
}

// All returns the suite sorted by ID, including runtime-registered
// generated kernels.
func All() []Kernel {
	out := append([]Kernel(nil), kernels...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GoKer returns only the hand-ported GoKer benchmark kernels, sorted by
// ID — the pinned 68-kernel evaluation set, regardless of how many
// generated kernels have been registered.
func GoKer() []Kernel {
	var out []Kernel
	for _, k := range kernels {
		if !k.Generated {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks a kernel up by its GoKer identifier.
func ByID(id string) (Kernel, bool) {
	i, ok := byID[id]
	if !ok {
		return Kernel{}, false
	}
	return kernels[i], true
}

// Select resolves a -bugs flag value, comma-separated kernel IDs, to the
// kernels it names, in order. An empty value selects nil, which callers
// read as the full suite.
func Select(ids string) ([]Kernel, error) {
	if ids == "" {
		return nil, nil
	}
	var out []Kernel
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		k, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown bug %q in -bugs (try goat -list)", id)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-bugs selected no kernels")
	}
	return out, nil
}

// Projects returns the distinct project names, sorted.
func Projects() []string {
	set := map[string]bool{}
	for _, k := range kernels {
		set[k.Project] = true
	}
	var out []string
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Run executes a kernel once under the given options.
func Run(k Kernel, opts sim.Options) *sim.Result {
	return sim.Run(opts, k.Main)
}
