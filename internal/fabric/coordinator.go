package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"goat/internal/harness"
	"goat/internal/telemetry"
)

// CoordinatorConfig configures one campaign coordinator.
type CoordinatorConfig struct {
	// Job is the campaign to distribute (required, validated).
	Job JobSpec

	// JournalPath, when non-empty, checkpoints every completed cell to
	// this file and resumes from it on restart.
	JournalPath string

	// FlightRecDir, when non-empty, archives flight-recorder dumps
	// collected from workers into this directory; the merged cell's
	// FlightRec is rewritten to the coordinator-local path.
	FlightRecDir string

	// LeaseTTL bounds how long a worker may hold a unit before the
	// coordinator assumes it crashed or hung and reassigns the unit. Zero
	// derives a default from the job's cell watchdog: every attempt the
	// worker-side harness may spend (budget × (retries+1)) plus slack.
	LeaseTTL time.Duration

	// MaxAssigns is how many leases a unit may burn before it is
	// quarantined as a poison cell (default 3).
	MaxAssigns int

	// Backoff is the base reassignment delay after a lease expiry,
	// doubling per expiry (default 250ms, capped at 8× base).
	Backoff time.Duration

	// OnCell observes every newly merged cell with the worker that
	// evaluated it ("" for journal-replayed cells). Called outside the
	// coordinator lock.
	OnCell func(worker string, c harness.Cell)

	// now is the test clock seam (nil = time.Now).
	now func() time.Time
}

func (c CoordinatorConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	budget := c.Job.CellBudget
	if budget <= 0 {
		budget = 30 * time.Second
	}
	attempts := c.Job.Retries
	switch {
	case attempts < 0:
		attempts = 0
	case attempts == 0:
		attempts = 1
	}
	return budget*time.Duration(attempts+1) + 15*time.Second
}

func (c CoordinatorConfig) maxAssigns() int {
	if c.MaxAssigns <= 0 {
		return 3
	}
	return c.MaxAssigns
}

func (c CoordinatorConfig) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 250 * time.Millisecond
	}
	return c.Backoff
}

// unitState is the lifecycle of one work unit.
type unitState uint8

const (
	unitPending unitState = iota
	unitLeased
	unitDone
	unitPoisoned // done, degraded: quarantined after repeated lease expiries
)

// unit is one (bug, tool) cell's coordinator-side record.
type unit struct {
	u     Unit
	state unitState
	cell  harness.Cell // valid once state is unitDone/unitPoisoned

	leaseID      string
	worker       string
	deadline     time.Time // lease expiry
	assigns      int       // leases granted so far
	backoffUntil time.Time // earliest next lease after an expiry
}

// Coordinator owns a job's unit ledger and serves the fabric protocol.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	units     []*unit
	remaining int
	journal   *Journal
	workers   map[string]int64 // worker → merged cell count
	doneCh    chan struct{}
	closed    bool
}

// NewCoordinator builds the unit ledger, resumes from the checkpoint
// journal when one is configured, and is immediately ready to serve.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: map[string]int64{},
		doneCh:  make(chan struct{}),
	}
	n := cfg.Job.Cells()
	c.units = make([]*unit, n)
	for seq := 0; seq < n; seq++ {
		u, err := cfg.Job.Unit(seq)
		if err != nil {
			return nil, err
		}
		c.units[seq] = &unit{u: u}
	}
	c.remaining = n
	if cfg.JournalPath != "" {
		j, done, err := OpenJournal(cfg.JournalPath, cfg.Job.Fingerprint(), n)
		if err != nil {
			return nil, err
		}
		c.journal = j
		for seq, cell := range done {
			c.units[seq].state = unitDone
			c.units[seq].cell = cell
			c.remaining--
		}
	}
	if c.remaining == 0 {
		close(c.doneCh)
	}
	return c, nil
}

// Done is closed once every unit is merged (or quarantined).
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Close releases the journal. It does not stop in-flight HTTP handlers.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

func (c *Coordinator) now() time.Time {
	if c.cfg.now != nil {
		return c.cfg.now()
	}
	return time.Now()
}

// sweepLocked expires overdue leases: the unit returns to the pending
// queue behind an exponential backoff, or — once it has burned
// MaxAssigns leases — is quarantined as a poison cell so the campaign
// completes degraded instead of looping forever. Returns the cells
// poisoned by this sweep (to notify OnCell outside the lock).
func (c *Coordinator) sweepLocked(now time.Time) []harness.Cell {
	var poisoned []harness.Cell
	for _, u := range c.units {
		if u.state != unitLeased || now.Before(u.deadline) {
			continue
		}
		if u.assigns >= c.cfg.maxAssigns() {
			u.state = unitPoisoned
			u.cell = harness.Cell{
				Bug: u.u.Bug, Tool: u.u.Tool, Status: harness.CellHung,
				Err:     fmt.Sprintf("poison cell: %d leases expired (workers crashed or hung evaluating it)", u.assigns),
				Retries: u.assigns - 1,
			}
			c.mergeLocked(u, u.cell)
			poisoned = append(poisoned, u.cell)
			telemetry.FabricPoisoned.Inc()
			continue
		}
		backoff := c.cfg.backoff() << (u.assigns - 1)
		if max := c.cfg.backoff() << 3; backoff > max {
			backoff = max
		}
		u.state = unitPending
		u.leaseID, u.worker = "", ""
		u.backoffUntil = now.Add(backoff)
		telemetry.FabricLeaseExpiries.Inc()
	}
	return poisoned
}

// mergeLocked records a finished cell (worker result or poison verdict),
// checkpoints it, and closes Done on the last one.
func (c *Coordinator) mergeLocked(u *unit, cell harness.Cell) {
	if u.state != unitPoisoned {
		u.state = unitDone
	}
	u.cell = cell
	u.leaseID, u.worker = "", ""
	c.remaining--
	if c.journal != nil {
		if err := c.journal.Append(u.u.Seq, cell); err != nil {
			// Checkpointing is best-effort durability, not correctness: a
			// failed append degrades resumability, never the campaign.
			fmt.Fprintf(os.Stderr, "fabric: checkpoint append failed: %v\n", err)
		}
	}
	if c.remaining == 0 {
		close(c.doneCh)
	}
}

// lease grants the lowest-seq leasable unit.
func (c *Coordinator) lease(workerName string, now time.Time) (leaseResponse, []harness.Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	poisoned := c.sweepLocked(now)
	if c.remaining == 0 {
		return leaseResponse{Done: true}, poisoned
	}
	for _, u := range c.units {
		if u.state != unitPending || now.Before(u.backoffUntil) {
			continue
		}
		u.state = unitLeased
		u.assigns++
		u.leaseID = fmt.Sprintf("%s-%d-%d", workerName, u.u.Seq, u.assigns)
		u.worker = workerName
		u.deadline = now.Add(c.cfg.leaseTTL())
		telemetry.FabricLeases.Inc()
		uu := u.u
		return leaseResponse{
			Unit:      &uu,
			LeaseID:   u.leaseID,
			TTLMillis: c.cfg.leaseTTL().Milliseconds(),
		}, poisoned
	}
	return leaseResponse{Wait: true}, poisoned
}

// complete merges a worker's result. Completion is idempotent: a result
// for an already-merged unit (a duplicate, or a slow worker whose lease
// expired and whose unit was re-evaluated elsewhere) is acknowledged and
// dropped — cells are deterministic, so whichever submission lands first
// is as good as any.
func (c *Coordinator) complete(req completeRequest) (completeResponse, harness.Cell, bool) {
	cell := req.Cell
	if c.cfg.FlightRecDir != "" && req.FlightRecName != "" && len(req.FlightRec) > 0 {
		cell.FlightRec = c.archiveFlightRec(req.FlightRecName, req.FlightRec)
	} else if cell.FlightRec != "" {
		// A worker-local path is meaningless on the coordinator host.
		cell.FlightRec = ""
	}
	c.mu.Lock()
	if req.Seq < 0 || req.Seq >= len(c.units) {
		c.mu.Unlock()
		return completeResponse{}, harness.Cell{}, false
	}
	u := c.units[req.Seq]
	if u.state == unitDone || u.state == unitPoisoned {
		resp := completeResponse{Accepted: false, Done: c.remaining == 0}
		c.mu.Unlock()
		return resp, harness.Cell{}, false
	}
	c.mergeLocked(u, cell)
	c.workers[req.Worker]++
	resp := completeResponse{Accepted: true, Done: c.remaining == 0}
	c.mu.Unlock()
	telemetry.FabricCellsMerged.Inc()
	return resp, cell, true
}

// archiveFlightRec stores a worker-collected dump locally, returning the
// local path ("" on any failure — forensics never fail a campaign).
func (c *Coordinator) archiveFlightRec(name string, data []byte) string {
	if err := os.MkdirAll(c.cfg.FlightRecDir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(c.cfg.FlightRecDir, filepath.Base(name))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}

// Table assembles the merged Table IV in canonical (bugs × tools) order.
// With every unit merged it is identical to the sequential harness's
// table (modulo wall-clock timings); earlier, not-yet-evaluated cells are
// annotated CANC!.
func (c *Coordinator) Table() *harness.TableIV {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tools []string
	for _, t := range c.cfg.Job.Tools {
		tools = append(tools, t.Name)
	}
	byKey := map[string]harness.Cell{}
	for _, u := range c.units {
		if u.state == unitDone || u.state == unitPoisoned {
			byKey[u.u.Bug+"\x00"+u.u.Tool] = u.cell
		}
	}
	return harness.AssembleTableIV(c.cfg.Job.Bugs, tools, func(bug, tool string) (harness.Cell, bool) {
		cell, ok := byKey[bug+"\x00"+tool]
		return cell, ok
	})
}

// Status is the coordinator's observable progress.
type Status struct {
	Total    int              `json:"total"`
	Done     int              `json:"done"`
	Pending  int              `json:"pending"`
	Leased   int              `json:"leased"`
	Poisoned int              `json:"poisoned"`
	Workers  map[string]int64 `json:"workers,omitempty"`
}

// Snapshot sweeps expired leases and returns the current progress.
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	c.sweepLocked(c.now())
	st := Status{Total: len(c.units), Workers: map[string]int64{}}
	for _, u := range c.units {
		switch u.state {
		case unitPending:
			st.Pending++
		case unitLeased:
			st.Leased++
		case unitDone:
			st.Done++
		case unitPoisoned:
			st.Done++
			st.Poisoned++
		}
	}
	for w, n := range c.workers {
		st.Workers[w] = n
	}
	c.mu.Unlock()
	return st
}

// WorkerSummary renders the per-worker shard contribution, sorted by
// worker name — the fabric's analogue of the campaign-health line.
func (c *Coordinator) WorkerSummary() string {
	st := c.Snapshot()
	if len(st.Workers) == 0 {
		return "fabric: no worker completed a cell\n"
	}
	names := make([]string, 0, len(st.Workers))
	for w := range st.Workers {
		names = append(names, w)
	}
	sort.Strings(names)
	s := fmt.Sprintf("fabric: %d/%d cells merged from %d worker(s)", st.Done, st.Total, len(names))
	if st.Poisoned > 0 {
		s += fmt.Sprintf(", %d poisoned", st.Poisoned)
	}
	s += "\n"
	for _, w := range names {
		s += fmt.Sprintf("  %-20s %d cells\n", w, st.Workers[w])
	}
	return s
}

// Handler serves the fabric protocol:
//
//	GET  /v1/job      → JobSpec
//	POST /v1/lease    → leaseResponse
//	POST /v1/complete → completeResponse
//	GET  /v1/status   → Status
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/job", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.cfg.Job)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req leaseRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, poisoned := c.lease(req.Worker, c.now())
		c.notify("", poisoned)
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req completeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, cell, merged := c.complete(req)
		if merged {
			c.notify(req.Worker, []harness.Cell{cell})
		}
		writeJSON(w, resp)
	})
	return mux
}

// notify invokes OnCell outside the coordinator lock.
func (c *Coordinator) notify(worker string, cells []harness.Cell) {
	if c.cfg.OnCell == nil {
		return
	}
	for _, cell := range cells {
		c.cfg.OnCell(worker, cell)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
