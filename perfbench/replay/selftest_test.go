package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tse/internal/flowtable"
)

// small scales every workload down so the whole set runs in about a
// second while keeping its character: EMC hits, EMC thrash, a growing
// mask count, the async upcall path.
func small(w workload) workload {
	switch w.name {
	case "victim-mix":
		w.victimPps = 16
	case "flow-churn":
		w.victimPps = 1
	default:
		w.victims, w.victimPps, w.attackPps, w.maxAttack = 8, 64, 256, 300
	}
	w.seconds = 2
	return w
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSelfTest runs every workload scaled down, untraced and traced, and
// asserts a zero error rate, a passing fidelity check, and that the
// metrics printed are exactly those BENCHMARK.json declares, with the same
// units.
func TestSelfTest(t *testing.T) {
	bf := readBenchFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(config{w: small(w), seed: 7, traced: traced, dir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] not declared as such in BENCHMARK.json", w.name, traced, name, m.Unit)
				}
			}
		}
	}
}

// TestOracleCountsWrongVerdicts flips one expected action and checks the
// replay reports exactly one error.
func TestOracleCountsWrongVerdicts(t *testing.T) {
	w := small(workloads[0])
	in, err := synthesize(w, 3, filepath.Join(t.TempDir(), "t.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if in.expected[5] == flowtable.Drop {
		in.expected[5] = flowtable.Allow
	} else {
		in.expected[5] = flowtable.Drop
	}
	r, err := runRep(w, in, newBuffers(len(in.expected)))
	if err != nil {
		t.Fatal(err)
	}
	if r.errors != 1 {
		t.Fatalf("errors = %d, want 1", r.errors)
	}
}

// TestSameCounters checks the fidelity comparison: every counter counts
// inline, and only the timing-dependent ones are exempt on async.
func TestSameCounters(t *testing.T) {
	a := counters{Packets: 10, EMCHits: 4, EMCMisses: 6, MegaflowHits: 5, SlowPath: 1,
		Installs: 1, Masks: 1, Publishes: 1}
	timing := a
	timing.MegaflowHits, timing.SlowPath, timing.Installs, timing.Publishes = 4, 2, 2, 2
	if sameCounters(a, timing, false) == nil || sameCounters(a, timing, true) != nil {
		t.Fatal("the megaflow/slow-path split must count inline and be exempt async")
	}
	for _, f := range []func(c *counters){
		func(c *counters) { c.Packets++ }, func(c *counters) { c.EMCHits++ },
		func(c *counters) { c.EMCMisses++ }, func(c *counters) { c.EMCEvictions++ },
		func(c *counters) { c.Masks++ },
	} {
		b := a
		f(&b)
		if sameCounters(a, b, true) == nil {
			t.Fatalf("%s must fail on async too", fmtCounters(b))
		}
	}
}

// TestSeedChangesTrace checks that a seed reproduces its trace bytes and
// another seed does not.
func TestSeedChangesTrace(t *testing.T) {
	w := small(workloads[2])
	dir := t.TempDir()
	a, err := synthesize(w, 1, filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesize(w, 1, filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := synthesize(w, 2, filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if a.checksum != b.checksum || a.checksum == c.checksum {
		t.Fatalf("checksums %s %s %s: same seed must repeat, another must differ", a.checksum, b.checksum, c.checksum)
	}
}

// TestTail checks the nearest-rank quantiles and that the ungated tail is
// the highest percentile with at least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		v     int64
		ok    bool
	}{{999, "", 0, false}, {1000, "p99", 990, true}, {9999, "p99", 9900, true}, {10000, "p99.9", 9990, true}} {
		xs := make([]int64, tc.n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		if q := quantile(xs, 0.5); q != int64((tc.n+1)/2) {
			t.Errorf("n=%d: p50 = %d", tc.n, q)
		}
		label, v, ok := tail(xs)
		if label != tc.label || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d: tail = %s %d %v, want %s %d %v", tc.n, label, v, ok, tc.label, tc.v, tc.ok)
		}
	}
}
