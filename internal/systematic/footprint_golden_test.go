package systematic

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goat/internal/goker"
	"goat/internal/hb"
	"goat/internal/sim"
)

var updateFootprints = flag.Bool("update", false, "rewrite testdata/footprints.golden")

// goldenPlacements are the yield placements the footprint golden runs
// every kernel under: the base schedule and three increasingly deep
// interventions, so the DPOR candidate window starts at several m.
var goldenPlacements = [][]int64{nil, {2}, {3, 7}, {1, 4, 9}}

// goldenRun executes k at seed under the placement with the recording
// options ExploreDPOR plans with.
func goldenRun(k goker.Kernel, seed int64, yields []int64) *sim.Result {
	opts := baseOptions(seed)
	opts.YieldAt = append([]int64{}, yields...)
	opts.RecordOps = true
	return sim.Run(opts, k.Main)
}

// footprintLine renders one golden entry: the Full and Must footprints
// (post-hoc and per-event builds must agree), a hash of the racing-pair
// list, and the backtrack points dporCandidates seeds past the
// placement's last yield.
func footprintLine(t *testing.T, id string, seed int64, yields []int64, r *sim.Result) string {
	t.Helper()
	full := hb.FromTrace(r.Trace, hb.Full).Footprint
	must := hb.FromTrace(r.Trace, hb.Must).Footprint
	if d := hb.BuildDeps(r.Trace, hb.Full).Footprint; d != full {
		t.Errorf("%s s%d %v: BuildDeps Full footprint %016x, FromTrace %016x", id, seed, yields, d, full)
	}
	deps := hb.BuildDeps(r.Trace, hb.Must)
	if deps.Footprint != must {
		t.Errorf("%s s%d %v: BuildDeps Must footprint %016x, FromTrace %016x", id, seed, yields, deps.Footprint, must)
	}
	pairs := deps.RacingPairs()
	h := fnv.New64a()
	for _, p := range pairs {
		fmt.Fprintf(h, "%d,%d;", p[0], p[1])
	}
	var m int64
	if len(yields) > 0 {
		m = yields[len(yields)-1]
	}
	cands, noops := dporCandidates(r, m)
	var cs []string
	for _, c := range cands {
		cs = append(cs, fmt.Sprintf("%d/g%d", c.op, c.peer))
	}
	return fmt.Sprintf("%s s%d y%v full=%016x must=%016x pairs=%d:%016x noops=%d cands=[%s]",
		id, seed, yields, full, must, len(pairs), h.Sum64(), noops, strings.Join(cs, " "))
}

// TestFootprintGolden pins the exact happens-before footprints, racing
// pairs and DPOR backtrack points of every kernel over a grid of seeds
// and placements. The values were recorded with GoID-keyed map clocks;
// any change to the clock representation, the edge rules, the hash or
// the candidate derivation that is not bit-identical fails here.
// Regenerate (only for an intended semantic change) with
//
//	go test ./internal/systematic -run TestFootprintGolden -update
func TestFootprintGolden(t *testing.T) {
	var b strings.Builder
	for _, k := range goker.All() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, y := range goldenPlacements {
				r := goldenRun(k, seed, y)
				b.WriteString(footprintLine(t, k.ID, seed, y, r))
				b.WriteByte('\n')
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "footprints.golden")
	if *updateFootprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
