package goker

import (
	"sort"
	"strings"
	"testing"

	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/trace"
)

func TestSuiteSize(t *testing.T) {
	if n := len(GoKer()); n != 68 {
		t.Fatalf("suite has %d kernels, want 68 (the GoKer blocking set)", n)
	}
}

func TestNineProjects(t *testing.T) {
	set := map[string]bool{}
	for _, k := range GoKer() {
		set[k.Project] = true
	}
	var projects []string
	for p := range set {
		projects = append(projects, p)
	}
	sort.Strings(projects)
	want := []string{"cockroach", "etcd", "grpc", "hugo", "istio", "kubernetes", "moby", "serving", "syncthing"}
	if len(projects) != len(want) {
		t.Fatalf("projects = %v, want the paper's 9", projects)
	}
	for i, p := range want {
		if projects[i] != p {
			t.Fatalf("projects = %v, want %v", projects, want)
		}
	}
}

func TestKernelMetadata(t *testing.T) {
	for _, k := range All() {
		if !strings.HasPrefix(k.ID, k.Project+"_") {
			t.Errorf("%s: ID not prefixed by project %q", k.ID, k.Project)
		}
		if k.Description == "" {
			t.Errorf("%s: missing description", k.ID)
		}
		if k.Cause.String() == "" {
			t.Errorf("%s: bad cause", k.ID)
		}
	}
}

func TestByID(t *testing.T) {
	k, ok := ByID("moby_28462")
	if !ok || k.Project != "moby" {
		t.Fatalf("ByID(moby_28462) = %+v, %v", k, ok)
	}
	if _, ok := ByID("nope_1"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestSelect(t *testing.T) {
	if ks, err := Select(""); ks != nil || err != nil {
		t.Fatalf(`Select("") = %v, %v; want nil, nil`, ks, err)
	}
	ks, err := Select(" moby_28462 , etcd_7443")
	if err != nil || len(ks) != 2 || ks[0].ID != "moby_28462" || ks[1].ID != "etcd_7443" {
		t.Fatalf("Select(two IDs) = %v, %v", ks, err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf(`Select("nope") error = %v, want it to name "nope"`, err)
	}
	if _, err := Select(", ,"); err == nil || err.Error() != "-bugs selected no kernels" {
		t.Fatalf(`Select(", ,") error = %v`, err)
	}
}

// TestEveryBugManifests is the suite's core guarantee: for every kernel,
// some schedule within a bounded search (seeds × delay bounds) produces
// the expected symptom, and GoAT detects it.
func TestEveryBugManifests(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			budget := 60
			if k.Rare {
				budget = 400
			}
			for _, delays := range []int{0, 1, 2, 3, 4} {
				for seed := int64(0); seed < int64(budget); seed++ {
					r := Run(k, sim.Options{Seed: seed, Delays: delays})
					if symptomMatches(k.Expect, r.Outcome) {
						if d := (detect.Goat{}).Detect(r); !d.Found {
							t.Fatalf("symptom %v occurred but GoAT missed it: %+v", r.Outcome, d)
						}
						return
					}
					if r.Outcome == sim.OutcomeCrash && k.Expect != "CRASH" {
						t.Fatalf("unexpected crash (seed %d, D=%d): %v", seed, delays, r.PanicVal)
					}
				}
			}
			t.Fatalf("expected symptom %s never manifested", k.Expect)
		})
	}
}

func symptomMatches(expect string, outcome sim.Outcome) bool {
	switch expect {
	case "PDL":
		return outcome == sim.OutcomeLeak
	case "GDL":
		return outcome == sim.OutcomeGlobalDeadlock || outcome == sim.OutcomeTimeout
	case "CRASH":
		return outcome == sim.OutcomeCrash
	}
	return false
}

// TestNonRareKernelsBiteQuickly: kernels not marked Rare must manifest
// within a handful of native (D=0) executions.
func TestNonRareKernelsBiteQuickly(t *testing.T) {
	for _, k := range All() {
		if k.Rare {
			continue
		}
		hit := false
		for seed := int64(0); seed < 20; seed++ {
			r := Run(k, sim.Options{Seed: seed})
			if symptomMatches(k.Expect, r.Outcome) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("%s: non-rare kernel did not bite within 20 native runs", k.ID)
		}
	}
}

// TestKernelsNeverPanicUnexpectedly sweeps schedules checking kernels stay
// within their declared symptom space.
func TestKernelsNeverPanicUnexpectedly(t *testing.T) {
	for _, k := range All() {
		if k.Expect == "CRASH" {
			continue
		}
		for seed := int64(100); seed < 130; seed++ {
			r := Run(k, sim.Options{Seed: seed, Delays: 3})
			if r.Outcome == sim.OutcomeCrash {
				t.Errorf("%s: crashed under seed %d: %v", k.ID, seed, r.PanicVal)
				break
			}
		}
	}
}

// TestRareKernelsAreSometimesHealthy: a Rare kernel must also have healthy
// runs — otherwise it is not schedule-dependent at all.
func TestRareKernelsAreSometimesHealthy(t *testing.T) {
	for _, k := range All() {
		if !k.Rare {
			continue
		}
		healthy := false
		for seed := int64(0); seed < 100 && !healthy; seed++ {
			r := Run(k, sim.Options{Seed: seed})
			healthy = r.Outcome == sim.OutcomeOK
		}
		if !healthy {
			t.Errorf("%s: marked Rare but never completed OK in 100 native runs", k.ID)
		}
	}
}

func TestTracesValidAcrossSuite(t *testing.T) {
	for _, k := range All() {
		r := Run(k, sim.Options{Seed: 1, Delays: 1})
		if r.Trace == nil {
			t.Fatalf("%s: no trace", k.ID)
		}
		if err := r.Trace.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", k.ID, err)
		}
	}
}

// TestCauseTaxonomyConsistent: a kernel's trace must exercise the
// primitive classes its declared root cause implies — resource deadlocks
// involve locks, communication deadlocks involve channels/conds, mixed
// ones involve both.
func TestCauseTaxonomyConsistent(t *testing.T) {
	classOf := func(e trace.Event) (lock, comm bool) {
		switch e.Type {
		case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
			return true, false
		case trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose,
			trace.EvSelect, trace.EvCondWait, trace.EvCondSignal,
			trace.EvCondBroadcast, trace.EvWgWait, trace.EvOnceDo:
			return false, true
		case trace.EvGoBlock:
			// An op that never completes emits only its block event.
			switch e.BlockReason() {
			case trace.BlockMutex, trace.BlockRMutex:
				return true, false
			case trace.BlockSend, trace.BlockRecv, trace.BlockSelect,
				trace.BlockCond, trace.BlockWaitGroup, trace.BlockSync:
				return false, true
			}
		}
		return false, false
	}
	for _, k := range All() {
		var lock, comm bool
		// Union over a few schedules: some classes only appear on some paths.
		for seed := int64(0); seed < 10; seed++ {
			r := Run(k, sim.Options{Seed: seed, Delays: 2})
			for _, e := range r.Trace.Events {
				l, c := classOf(e)
				lock = lock || l
				comm = comm || c
			}
		}
		switch k.Cause {
		case ResourceDeadlock:
			if !lock {
				t.Errorf("%s: resource deadlock without lock events", k.ID)
			}
		case CommunicationDeadlock:
			if !comm {
				t.Errorf("%s: communication deadlock without channel/cond events", k.ID)
			}
		case MixedDeadlock:
			if !lock || !comm {
				t.Errorf("%s: mixed deadlock missing a class (lock=%v comm=%v)", k.ID, lock, comm)
			}
		}
	}
}
