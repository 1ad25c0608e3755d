package fabric

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"goat/internal/conc"
	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/sim"
)

// smallJob is a 2-kernel × 2-tool matrix over real suite kernels.
func smallJob(t *testing.T) JobSpec {
	t.Helper()
	job, err := NewJob(harness.Config{
		MaxExecs: 3,
		Kernels:  kernelsByID(t, "moby_28462", "etcd_6873"),
		Tools: []harness.Spec{
			{Name: "goat-D0", Detector: detect.Goat{}},
			{Name: "builtin", Detector: detect.Builtin{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func kernelsByID(t *testing.T, ids ...string) []goker.Kernel {
	t.Helper()
	var out []goker.Kernel
	for _, id := range ids {
		k, ok := goker.ByID(id)
		if !ok {
			t.Fatalf("kernel %s missing", id)
		}
		out = append(out, k)
	}
	return out
}

func TestToolSpecRoundTrip(t *testing.T) {
	for _, s := range harness.ToolsWithPredict() {
		ts, err := NewToolSpec(s)
		if err != nil {
			t.Fatalf("NewToolSpec(%s): %v", s.Name, err)
		}
		back, err := ts.Spec()
		if err != nil {
			t.Fatalf("Spec(%s): %v", s.Name, err)
		}
		if back.Name != s.Name || back.Delays != s.Delays {
			t.Fatalf("round trip mangled %+v -> %+v", s, back)
		}
		if back.Detector.Name() != s.Detector.Name() {
			t.Fatalf("detector %q became %q", s.Detector.Name(), back.Detector.Name())
		}
	}
	if _, err := (ToolSpec{Name: "x", Detector: "nope"}).Spec(); err == nil {
		t.Fatal("unknown detector accepted")
	}
}

func TestJobValidateAndFingerprint(t *testing.T) {
	job := smallJob(t)
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	fp := job.Fingerprint()
	if fp != job.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	other := job
	other.BaseSeed = 99
	if other.Fingerprint() == fp {
		t.Fatal("fingerprint ignores the seed")
	}

	bad := job
	bad.Bugs = append([]string{"no_such_kernel"}, bad.Bugs...)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unknown kernel accepted: %v", err)
	}

	u, err := job.Unit(3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Bug != job.Bugs[1] || u.Tool != job.Tools[1].Name {
		t.Fatalf("row-major unit mapping wrong: %+v", u)
	}
	if _, err := job.Unit(4); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
}

func TestJournalResume(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	job := smallJob(t)
	fp := job.Fingerprint()

	j, done, err := OpenJournal(path, fp, job.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal replayed %d cells", len(done))
	}
	c0 := harness.Cell{Bug: "moby_28462", Tool: "goat-D0", Found: true, MinExecs: 2, Verdict: "PDL-2"}
	c1 := harness.Cell{Bug: "etcd_6873", Tool: "builtin", Status: harness.CellHung, Err: "x", Retries: 1}
	if err := j.Append(0, c0); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(3, c1); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// A torn trailing line (coordinator killed mid-append) must be
	// ignored on replay and overwritten by the next append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":1,"cell":{"Bug":"torn`)
	f.Close()

	j2, done2, err := OpenJournal(path, fp, job.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if len(done2) != 2 {
		t.Fatalf("replayed %d cells, want 2", len(done2))
	}
	if got := done2[0]; got.Verdict != "PDL-2" || !got.Found || got.MinExecs != 2 {
		t.Fatalf("cell 0 replayed wrong: %+v", got)
	}
	if got := done2[3]; got.Status != harness.CellHung || got.Retries != 1 {
		t.Fatalf("cell 3 replayed wrong: %+v", got)
	}
	if err := j2.Append(1, harness.Cell{Bug: "moby_28462", Tool: "builtin"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, done3, err := OpenJournal(path, fp, job.Cells())
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(done3) != 3 {
		t.Fatalf("after torn-tail overwrite, replayed %d cells, want 3", len(done3))
	}

	// A journal from a different job must be rejected.
	if _, _, err := OpenJournal(path, "deadbeefdeadbeef", job.Cells()); err == nil {
		t.Fatal("foreign journal accepted")
	}
}

// fakeClock drives the coordinator's lease machinery deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLeaseExpiryBackoffAndPoison(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	job := smallJob(t)
	job.Bugs = job.Bugs[:1]
	job.Tools = job.Tools[:1] // 1-cell matrix: every lease hits the same unit
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:        job,
		LeaseTTL:   time.Second,
		Backoff:    100 * time.Millisecond,
		MaxAssigns: 2,
		now:        clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	resp, _ := coord.lease("w1", clk.now())
	if resp.Unit == nil || resp.Unit.Seq != 0 {
		t.Fatalf("first lease = %+v", resp)
	}
	// Same instant, second worker: everything is leased.
	resp, _ = coord.lease("w2", clk.now())
	if !resp.Wait {
		t.Fatalf("expected Wait while leased, got %+v", resp)
	}
	// Past the TTL the unit is reassignable — but only after the backoff.
	clk.advance(1100 * time.Millisecond)
	resp, _ = coord.lease("w2", clk.now())
	if !resp.Wait {
		t.Fatalf("expected Wait inside the backoff window, got %+v", resp)
	}
	clk.advance(150 * time.Millisecond)
	resp, _ = coord.lease("w2", clk.now())
	if resp.Unit == nil {
		t.Fatalf("expected reassignment after backoff, got %+v", resp)
	}
	// Second expiry exhausts MaxAssigns: the unit is poisoned and the
	// campaign completes degraded.
	clk.advance(2 * time.Second)
	resp, poisoned := coord.lease("w3", clk.now())
	if !resp.Done {
		t.Fatalf("expected Done after poison quarantine, got %+v", resp)
	}
	if len(poisoned) != 1 {
		t.Fatalf("poisoned %d cells, want 1", len(poisoned))
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("Done not closed after poisoning the last unit")
	}
	tab := coord.Table()
	cell := tab.Rows[0].Cells[0]
	if cell.Status != harness.CellHung || !strings.Contains(cell.Err, "poison") {
		t.Fatalf("poisoned cell = %+v", cell)
	}
	if !strings.Contains(tab.String(), "HUNG!") {
		t.Fatal("poisoned cell not annotated in Table IV")
	}
}

func TestCompleteIsIdempotent(t *testing.T) {
	job := smallJob(t)
	path := t.TempDir() + "/j.jsonl"
	coord, err := NewCoordinator(CoordinatorConfig{Job: job, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	lease, _ := coord.lease("w1", time.Now())
	if lease.Unit == nil {
		t.Fatalf("no lease: %+v", lease)
	}
	cell := harness.Cell{Bug: lease.Unit.Bug, Tool: lease.Unit.Tool, Found: true, MinExecs: 1, Verdict: "PDL-2"}
	req := completeRequest{Worker: "w1", LeaseID: lease.LeaseID, Seq: lease.Unit.Seq, Cell: cell}
	resp, _, merged := coord.complete(req)
	if !resp.Accepted || !merged {
		t.Fatalf("first completion rejected: %+v", resp)
	}
	resp, _, merged = coord.complete(req)
	if resp.Accepted || merged {
		t.Fatalf("duplicate completion accepted: %+v", resp)
	}
	coord.Close()

	_, done, err := OpenJournal(path, job.Fingerprint(), job.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("journal holds %d records after duplicate submission, want 1", len(done))
	}
}

// TestFabricEndToEnd runs a real coordinator + two workers over HTTP and
// checks the merged table equals the sequential harness's.
func TestFabricEndToEnd(t *testing.T) {
	kernels := kernelsByID(t, "moby_28462", "etcd_6873", "grpc_660")
	tools := []harness.Spec{
		{Name: "goat-D0", Detector: detect.Goat{}},
		{Name: "goat-D2", Detector: detect.Goat{}, Delays: 2},
	}
	cfg := harness.Config{MaxExecs: 5, BaseSeed: 3, Kernels: kernels, Tools: tools}
	want := harness.RunTableIV(cfg)

	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		w := &Worker{Coord: srv.URL, Name: name, Poll: 20 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()

	got := coord.Table()
	if got.String() != want.String() {
		t.Fatalf("fabric table differs from sequential:\n--- fabric ---\n%s--- sequential ---\n%s", got, want)
	}
	sum := coord.WorkerSummary()
	if !strings.Contains(sum, "6/6 cells merged") {
		t.Fatalf("worker summary = %q", sum)
	}
	st := coord.Snapshot()
	if st.Done != 6 || st.Poisoned != 0 {
		t.Fatalf("status = %+v", st)
	}
}

// fabricHang is a registered kernel that wedges the host so a fabric cell
// fails HUNG and produces a flight-recorder dump on the worker.
var fabricHangOnce sync.Once

func registerFabricHang(t *testing.T) {
	fabricHangOnce.Do(func() {
		err := goker.Register(goker.Kernel{
			ID: "fabric_test_hang", Project: "synthetic", Expect: "GDL", Generated: true,
			Description: "host-level hang for fabric flight-rec collection tests",
			Main: func(g *sim.G) {
				// Emit a few real events so the flight recorder has something
				// to dump, then wedge the host goroutine on a native channel
				// (invisible to the virtual runtime) until the watchdog fires.
				ch := conc.NewChan[int](g, 1)
				ch.Send(g, 1)
				ch.Recv(g)
				var block chan struct{}
				<-block
			},
		})
		if err != nil {
			t.Fatalf("registering hang kernel: %v", err)
		}
	})
}

func TestFlightRecCollectedFromWorker(t *testing.T) {
	registerFabricHang(t)
	dir := t.TempDir()
	job, err := NewJob(harness.Config{
		MaxExecs:     2,
		Kernels:      kernelsByID(t, "fabric_test_hang"),
		Tools:        []harness.Spec{{Name: "builtin", Detector: detect.Builtin{}}},
		CellBudget:   200 * time.Millisecond,
		Retries:      -1,
		FlightRecDir: dir, // any non-empty dir turns FlightRec on in the job
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:          job,
		FlightRecDir: dir,
		LeaseTTL:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := &Worker{Coord: srv.URL, Name: "w1", FlightDir: t.TempDir()}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}

	tab := coord.Table()
	cell := tab.Rows[0].Cells[0]
	if cell.Status != harness.CellHung {
		t.Fatalf("cell = %+v, want HUNG", cell)
	}
	if cell.FlightRec == "" || !strings.HasPrefix(cell.FlightRec, dir) {
		t.Fatalf("flight rec not archived on the coordinator: %q", cell.FlightRec)
	}
	if st, err := os.Stat(cell.FlightRec); err != nil || st.Size() == 0 {
		t.Fatalf("archived dump unreadable: %v", err)
	}
}
