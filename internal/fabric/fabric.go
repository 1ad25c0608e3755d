// Package fabric is the distributed campaign layer: a coordinator shards
// the (kernel × tool) cell matrix of a Table IV evaluation into work
// units and hands them to worker processes over HTTP, surviving every
// worker failure mode the harness itself cannot contain — a worker that
// crashes mid-cell, a worker that hangs and never reports back, and a
// coordinator process that is restarted mid-campaign.
//
// The design leans on one property the rest of the codebase already
// guarantees: a cell is a deterministic function of (kernel, tool spec,
// campaign config). That makes redundant evaluation harmless (two workers
// racing the same cell produce the identical result, so completion is
// idempotent), lets an expired lease simply be reassigned, and lets a
// restarted coordinator resume from an append-only journal of completed
// cells without re-running any of them. The merged table is assembled in
// canonical (bugs × tools) order, so a fabric campaign renders the exact
// same Table IV as the single-process harness regardless of which worker
// evaluated which cell in which order.
//
// Failure matrix:
//
//   - worker crash mid-cell: its lease expires (TTL sized from the cell
//     watchdog budget), the unit returns to the pending queue with an
//     exponential reassignment backoff, and another worker picks it up.
//   - worker hang: indistinguishable from a crash at the coordinator —
//     same lease-expiry path; the worker's own harness watchdog usually
//     reports the cell HUNG before the lease runs out.
//   - poison cell: a unit whose lease expires MaxAssigns times (it keeps
//     killing or wedging whoever takes it) is quarantined: recorded as a
//     HUNG cell with a poison annotation so the campaign completes
//     degraded instead of looping forever.
//   - coordinator restart: completed cells are checkpointed to a journal
//     (one JSON line per cell, torn tails tolerated); a new coordinator
//     pointed at the same journal readmits them as done and only the
//     remainder is redistributed.
//   - partial results: an interrupted coordinator still assembles the
//     merged table — missing cells are annotated, never invented.
package fabric

import (
	"fmt"
	"hash/fnv"
	"time"

	"goat/internal/detect"
	"goat/internal/fault"
	"goat/internal/goker"
	"goat/internal/harness"
)

// ToolSpec is the serializable form of a harness.Spec: the detector is
// carried by name and resolved on the worker, since detector values are
// code, not data.
type ToolSpec struct {
	// Name is the Table IV column name, e.g. "goat-D2".
	Name string `json:"name"`
	// Detector names the classifier: goat|builtin|lockdl|goleak|predict.
	Detector string `json:"detector"`
	// Delays is the yield bound D.
	Delays int `json:"delays,omitempty"`
}

// NewToolSpec converts a harness.Spec into its wire form.
func NewToolSpec(s harness.Spec) (ToolSpec, error) {
	if s.Detector == nil {
		return ToolSpec{}, fmt.Errorf("fabric: tool %q has no detector", s.Name)
	}
	t := ToolSpec{Name: s.Name, Detector: s.Detector.Name(), Delays: s.Delays}
	if _, err := t.Spec(); err != nil {
		return ToolSpec{}, err
	}
	return t, nil
}

// Spec resolves the wire form back into a runnable harness.Spec.
func (t ToolSpec) Spec() (harness.Spec, error) {
	var d detect.Detector
	switch t.Detector {
	case "goat":
		d = detect.Goat{}
	case "builtin":
		d = detect.Builtin{}
	case "lockdl":
		d = detect.LockDL{}
	case "goleak":
		d = detect.Goleak{}
	case "predict":
		d = detect.Predictive{}
	default:
		return harness.Spec{}, fmt.Errorf("fabric: tool %q names unknown detector %q", t.Name, t.Detector)
	}
	return harness.Spec{Name: t.Name, Detector: d, Delays: t.Delays}, nil
}

// JobSpec is one distributed campaign: the cell matrix plus every knob a
// worker needs to evaluate its cells exactly like the sequential harness
// would. It is fully serializable; workers fetch it from the coordinator
// at startup.
type JobSpec struct {
	// Bugs are the kernel IDs, in Table IV row order. Every worker must
	// be able to resolve them in its own goker registry.
	Bugs []string `json:"bugs"`
	// Tools are the detector columns, in Table IV column order.
	Tools []ToolSpec `json:"tools"`

	// MaxExecs is the per-cell execution budget (0 = harness default).
	MaxExecs int `json:"max_execs,omitempty"`
	// BaseSeed offsets every trial's seed.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Faults enables deterministic fault injection for every execution.
	Faults fault.Options `json:"faults,omitempty"`
	// CellBudget is the per-cell wall-clock watchdog (0 = default 30s).
	CellBudget time.Duration `json:"cell_budget,omitempty"`
	// Retries is the watchdog's fresh-seed retry count (harness semantics:
	// 0 = default 1, negative = none).
	Retries int `json:"retries,omitempty"`
	// FlightRec asks workers to attach flight-recorder dumps of failed
	// cells to their results so the coordinator can collect them.
	FlightRec bool `json:"flight_rec,omitempty"`
}

// NewJob builds the JobSpec equivalent of a harness.Config: nil kernel /
// tool selections expand to the harness defaults, so the fabric evaluates
// exactly the matrix RunTableIV would.
func NewJob(cfg harness.Config) (JobSpec, error) {
	job := JobSpec{
		MaxExecs:   cfg.MaxExecs,
		BaseSeed:   cfg.BaseSeed,
		Faults:     cfg.Faults,
		CellBudget: cfg.CellBudget,
		Retries:    cfg.Retries,
		FlightRec:  cfg.FlightRecDir != "",
	}
	kernels := cfg.Kernels
	if kernels == nil {
		kernels = goker.GoKer()
	}
	for _, k := range kernels {
		job.Bugs = append(job.Bugs, k.ID)
	}
	tools := cfg.Tools
	if tools == nil {
		tools = harness.DefaultTools()
	}
	for _, s := range tools {
		t, err := NewToolSpec(s)
		if err != nil {
			return JobSpec{}, err
		}
		job.Tools = append(job.Tools, t)
	}
	return job, job.Validate()
}

// Validate checks the job is well-formed and resolvable on this process:
// every bug must exist in the kernel registry and every tool must name a
// known detector.
func (j JobSpec) Validate() error {
	if len(j.Bugs) == 0 || len(j.Tools) == 0 {
		return fmt.Errorf("fabric: job needs at least one bug and one tool (%d bugs, %d tools)",
			len(j.Bugs), len(j.Tools))
	}
	seen := map[string]bool{}
	for _, b := range j.Bugs {
		if _, ok := goker.ByID(b); !ok {
			return fmt.Errorf("fabric: job names unknown kernel %q", b)
		}
		if seen[b] {
			return fmt.Errorf("fabric: job names kernel %q twice", b)
		}
		seen[b] = true
	}
	tseen := map[string]bool{}
	for _, t := range j.Tools {
		if _, err := t.Spec(); err != nil {
			return err
		}
		if tseen[t.Name] {
			return fmt.Errorf("fabric: job names tool %q twice", t.Name)
		}
		tseen[t.Name] = true
	}
	return nil
}

// CellConfig is the harness.Config a worker evaluates one cell under;
// flightDir is the worker's local dump scratch directory ("" disables).
func (j JobSpec) CellConfig(flightDir string) harness.Config {
	return harness.Config{
		MaxExecs:     j.MaxExecs,
		BaseSeed:     j.BaseSeed,
		Faults:       j.Faults,
		CellBudget:   j.CellBudget,
		Retries:      j.Retries,
		FlightRecDir: flightDir,
	}
}

// Cells returns the size of the cell matrix.
func (j JobSpec) Cells() int { return len(j.Bugs) * len(j.Tools) }

// Unit resolves a row-major sequence number into its (bug, tool) cell.
func (j JobSpec) Unit(seq int) (Unit, error) {
	if seq < 0 || seq >= j.Cells() {
		return Unit{}, fmt.Errorf("fabric: unit %d out of range (matrix has %d cells)", seq, j.Cells())
	}
	return Unit{
		Seq:  seq,
		Bug:  j.Bugs[seq/len(j.Tools)],
		Tool: j.Tools[seq%len(j.Tools)].Name,
	}, nil
}

// Fingerprint is a stable hash of the job's identity-defining fields. A
// checkpoint journal records it so a coordinator never resumes a journal
// written for a different campaign.
func (j JobSpec) Fingerprint() string {
	h := fnv.New64a()
	put := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	for _, b := range j.Bugs {
		put(b)
	}
	for _, t := range j.Tools {
		put(fmt.Sprintf("%s/%s/%d", t.Name, t.Detector, t.Delays))
	}
	put(fmt.Sprintf("%d/%d/%v/%d/%v",
		j.MaxExecs, j.BaseSeed, j.CellBudget, j.Retries, j.Faults))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Unit is one work item: a single (bug, tool) cell, identified by its
// row-major position in the job's matrix.
type Unit struct {
	Seq  int    `json:"seq"`
	Bug  string `json:"bug"`
	Tool string `json:"tool"`
}

func (u Unit) String() string { return fmt.Sprintf("#%d %s/%s", u.Seq, u.Bug, u.Tool) }

// Wire messages of the coordinator's HTTP protocol (v1).

// leaseRequest asks for one work unit.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseResponse grants a unit, asks the worker to wait, or reports the
// campaign done.
type leaseResponse struct {
	// Done: the campaign is complete, the worker should exit.
	Done bool `json:"done,omitempty"`
	// Wait: nothing is leasable right now (everything pending is inside a
	// reassignment backoff window, or all remaining units are leased);
	// poll again shortly.
	Wait bool `json:"wait,omitempty"`

	Unit    *Unit  `json:"unit,omitempty"`
	LeaseID string `json:"lease_id,omitempty"`
	// TTLMillis is how long the lease is valid; a worker that cannot
	// finish within it must assume the unit was reassigned.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// completeRequest submits one evaluated cell.
type completeRequest struct {
	Worker  string       `json:"worker"`
	LeaseID string       `json:"lease_id,omitempty"`
	Seq     int          `json:"seq"`
	Cell    harness.Cell `json:"cell"`

	// FlightRecName and FlightRec carry a failed cell's flight-recorder
	// dump (file base name + raw bytes) so the coordinator can archive
	// remote forensics locally.
	FlightRecName string `json:"flightrec_name,omitempty"`
	FlightRec     []byte `json:"flightrec,omitempty"`
}

// completeResponse acknowledges a submission. Duplicate or stale results
// are acknowledged but not accepted — completion is idempotent.
type completeResponse struct {
	Accepted bool `json:"accepted"`
	Done     bool `json:"done,omitempty"`
}
