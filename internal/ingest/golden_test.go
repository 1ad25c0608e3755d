package ingest

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"goat/internal/profile"
	"goat/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the ingest golden files under testdata/golden")

// smokeFixture is a 2000-job capture of bench/nativeload spanning two
// runtime/trace generations (10 planted strands), so the golden set
// covers the cross-generation paths of the converter: goroutines
// re-announced by GoStatus in the second generation, per-generation
// string and stack tables, and stack IDs reused across generations.
const smokeFixture = "testdata/nativeload-smoke.trace.gz"

// readFixture returns a capture's raw bytes, gunzipping .gz fixtures.
func readFixture(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return data
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return raw
}

// goldenDigest renders everything Parse produces, and everything the
// downstream consumers derive from it, as a short text: hashes where the
// output is large (ECT bytes, wall table, goroutine table, CPU samples,
// pprof encodings), verbatim where it is small (RunInfo, the stranded
// report). Two ingest implementations agree on a capture exactly when
// their digests are equal.
func goldenDigest(t *testing.T, data []byte) string {
	t.Helper()
	r, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var b strings.Builder
	var ect bytes.Buffer
	if err := r.Trace.Encode(&ect); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	fmt.Fprintf(&b, "events %d\nect %x\n", r.Trace.Len(), sha256.Sum256(ect.Bytes()))

	h := sha256.New()
	for _, w := range r.Wall {
		_ = binary.Write(h, binary.LittleEndian, w)
	}
	fmt.Fprintf(&b, "wall %d %x\n", len(r.Wall), h.Sum(nil))
	fmt.Fprintf(&b, "info %+v\n", r.Info)

	ids := make([]trace.GoID, 0, len(r.Gs))
	for id := range r.Gs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h = sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%+v\n", *r.Gs[id])
	}
	fmt.Fprintf(&b, "goroutines %d %x\n", len(ids), h.Sum(nil))

	h = sha256.New()
	var opts profile.Options
	opts.Wall = r.Wall
	for _, s := range r.CPUSamples {
		fmt.Fprintf(h, "%+v\n", s)
		cs := profile.CPUSample{G: s.G}
		for _, f := range s.Stack {
			cs.Stack = append(cs.Stack, profile.Frame{Func: f.Func, File: f.File, Line: f.Line})
		}
		opts.CPUSamples = append(opts.CPUSamples, cs)
	}
	fmt.Fprintf(&b, "cpu-samples %d %x\n", len(r.CPUSamples), h.Sum(nil))

	for _, s := range r.StrandedGoroutines(StrandedOpts{}) {
		fmt.Fprintf(&b, "stranded %s siblings=%d sig=%s\n", s, s.Siblings, s.Signature())
	}

	set := profile.Build(r.Trace, opts)
	for _, k := range []profile.Kind{profile.KindBlock, profile.KindMutex, profile.KindGoroutine, profile.KindCPU} {
		p := set.ByKind(k)
		if p == nil {
			continue
		}
		var pb bytes.Buffer
		if err := p.WritePprof(&pb); err != nil {
			t.Fatalf("%s pprof: %v", k, err)
		}
		fmt.Fprintf(&b, "pprof %s samples=%d %x\n", k, len(p.Samples), sha256.Sum256(pb.Bytes()))
	}
	return b.String()
}

// TestIngestGolden pins the byte-level output of the whole native
// ingest pipeline on every checked-in capture. The goldens were recorded
// from the straightforward implementation (one stack resolution and one
// formatted correlation key per event); any optimisation of the parser,
// the converter, the profile fold or the ECT codec must reproduce them
// exactly. Regenerate with `go test ./internal/ingest -run TestIngestGolden -update`
// only for a deliberate change of output.
func TestIngestGolden(t *testing.T) {
	for _, path := range []string{leakyFixture, cleanFixture, smokeFixture} {
		name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".gz"), ".trace")
		t.Run(name, func(t *testing.T) {
			got := goldenDigest(t, readFixture(t, path))
			golden := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if got != string(want) {
				t.Errorf("ingest output of %s changed.\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
