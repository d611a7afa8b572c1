// Command replay is the repository's end-to-end benchmark. It synthesises
// one seeded workload as a trace file, replays it through the PMD
// datapath the way tsebench -replay builds it, checks every verdict
// against the flow table, and prints the metrics by name with units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced
// replays. With -trace 1 a traced replay follows the untraced ones and the
// metrics are the per-layer ones; the traced replay must reproduce the
// untraced counters exactly.
//
// Load is a closed loop: 32 records decoded, one pool dispatch, the next
// decode only when the dispatch returns. Each replay starts from a fresh
// pipeline; replays repeat until -seconds have passed.
//
// Usage, from the repository root:
//
//	go run ./perfbench/replay -workload victim-mix -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// gomaxprocs pins the scheduler to two vCPUs: the PMD loop on one, the
// async workload's upcall handler on the other.
const gomaxprocs = 2

// setupSamples is the number of set-ups timed back to back, each followed
// by its teardown, before the first replay; setup_s is their median. One
// set-up takes tens of microseconds, so many are needed for a steady
// median.
const setupSamples = 1001

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	dir     string // trace file and span dump
}

func main() {
	name := flag.String("workload", "", "workload: victim-mix, flow-churn, tse-attack or tse-attack-async")
	seed := flag.Int64("seed", 1, "seed for the synthesised trace")
	seconds := flag.Float64("seconds", 10, "measure for this long (at least one replay)")
	traced := flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "replay: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := benchmark(config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		dir: filepath.Join(".bench_build", "perfbench")}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmark runs one workload and returns its result; the human-readable
// report goes to log.
func benchmark(cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d.trace", w.name, cfg.seed))
	in, err := synthesize(w, cfg.seed, path)
	defer os.Remove(path)
	if err != nil {
		return nil, fmt.Errorf("synthesising %s: %w", w.name, err)
	}
	fmt.Fprintf(log, "workload %s seed %d: %d records, trace sha256 %s\n",
		w.name, cfg.seed, len(in.expected), in.checksum)

	setups := make([]float64, setupSamples)
	for i := range setups {
		d, err := setupOnly(in.path, w.async)
		if err != nil {
			return nil, err
		}
		setups[i] = float64(d)
	}

	s := newBuffers(len(in.expected))
	var bursts []int32
	var reps []*repResult
	res := &result{}
	var problems []string
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < cfg.seconds {
		r, err := runRep(w, in, s)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			if err := sameCounters(reps[0].c, r.c, w.async); err != nil {
				problems = append(problems, fmt.Sprintf("replay %d differs from replay 0: %v", len(reps), err))
				res.Failed++
			}
		}
		reps = append(reps, r)
		bursts = append(bursts, s.bursts...)
		res.Attempted += r.packets()
		res.Failed += r.errors
	}
	slices.Sort(bursts)
	e2e := endToEnd(reps, setups, bursts)
	printMeta(log, cfg, in, reps, len(bursts), len(setups))
	printMetrics(log, "end-to-end", e2e)
	printSpread(log, reps)
	if lbl, v, ok := tail(bursts); ok {
		fmt.Fprintf(log, "burst_%s_us %.3f us (ungated; %d samples)\n", lbl, usOf(int64(v)), len(bursts))
	}
	res.Metrics = e2e

	if cfg.traced {
		tr, err := runTraced(w, in)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.c.Packets
		res.Failed += tr.errors
		if err := sameCounters(reps[0].c, tr.c, w.async); err != nil {
			problems = append(problems, "traced replay differs from untraced: "+err.Error())
			res.Failed++
		}
		fmt.Fprintf(log, "untraced counters %s\ntraced counters   %s\n", fmtCounters(reps[0].c), fmtCounters(tr.c))
		spans := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s.tsv", w.name))
		if err := tr.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%d spans written to %s\n", len(tr.tr.spans), spans)
		printSpans(log, tr)
		res.Metrics = perLayer(reps, tr, e2e["mpps"].Value)
		printMetrics(log, "per-layer", res.Metrics)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "replay: FAIL:", p)
	}
	fmt.Fprintf(log, "error_rate %g (%d of %d packets)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// sameCounters reports whether b differs from a. On async workloads the
// handler installs while the PMD is still scanning its burst, so how many
// misses find a megaflow installed moments earlier (megaflow hits versus
// slow path, and so installs) and how installs batch into publishes
// depend on timing; those are exempt. Their sum, the EMC misses, is not.
func sameCounters(a, b counters, async bool) error {
	if async {
		b.MegaflowHits, b.SlowPath = a.MegaflowHits, a.SlowPath
		b.Installs, b.Publishes = a.Installs, a.Publishes
	}
	if a != b {
		return fmt.Errorf("want %s, got %s", fmtCounters(a), fmtCounters(b))
	}
	return nil
}

func endToEnd(reps []*repResult, setups []float64, bursts []int32) map[string]metric {
	var mpps, cpu, heap []float64
	for _, r := range reps {
		mpps = append(mpps, r.mpps())
		cpu = append(cpu, float64(r.cpuNs)/float64(r.packets()))
		heap = append(heap, float64(r.liveHeap)/1e6)
	}
	return map[string]metric{
		"mpps":           {median(mpps), "Mpps"},
		"cpu_ns_per_pkt": {median(cpu), "ns"},
		"burst_p50_us":   {usOf(int64(quantile(bursts, 0.50))), "us"},
		"burst_p99_us":   {usOf(int64(quantile(bursts, 0.99))), "us"},
		"setup_s":        {median(setups) / 1e9, "s"},
		"live_heap_mb":   {median(heap), "MB"},
	}
}

// perLayer derives the per-layer metrics: counts and untraced timings
// from the replays, self times from the traced replay's spans.
func perLayer(reps []*repResult, tr *tracedResult, mpps float64) map[string]metric {
	perPkt := func(f func(r *repResult) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r)/float64(r.packets()))
		}
		return median(xs)
	}
	med := func(f func(r *repResult) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	c := reps[0].c
	lookups := float64(c.MegaflowHits + c.SlowPath)
	publishes := med(func(r *repResult) float64 { return float64(r.c.Publishes) })

	total, calls := tr.tr.totals()
	var durs [numSpans][]int64
	for _, s := range tr.tr.spans {
		if s.name == spMiss || s.name == spSubmit || s.name == spWait {
			durs[s.name] = append(durs[s.name], s.end-s.start)
		}
	}
	for i := range durs {
		slices.Sort(durs[i])
	}
	tracedMpps := float64(c.Packets) * 1e3 / float64(tr.wallNs)

	return map[string]metric{
		"trace.decode_ns_per_pkt":      {perPkt(func(r *repResult) float64 { return float64(r.decodeNs) }), "ns"},
		"datapath.dispatch_ns_per_pkt": {perPkt(func(r *repResult) float64 { return float64(r.dispatchNs) }), "ns"},
		"datapath.allocs_per_pkt":      {perPkt(func(r *repResult) float64 { return float64(r.mallocs) }), "1/pkt"},
		"datapath.gc_cycles":           {med(func(r *repResult) float64 { return float64(r.gcs) }), "count"},
		"microflow.hit_ratio":          {ratio(float64(c.EMCHits), float64(c.Packets)), "ratio"},
		"microflow.evictions_per_pkt":  {ratio(float64(c.EMCEvictions), float64(c.Packets)), "1/pkt"},
		"microflow.lookup_ns_per_pkt":  {ratio(float64(total[spLookup]), float64(c.Packets)), "ns"},
		"microflow.insert_ns_per_call": {ratio(float64(total[spInsert]), float64(calls[spInsert])), "ns"},
		"tss.lookup_ns_per_pkt":        {ratio(float64(total[spProcess]), float64(tr.missPkts)), "ns"},
		"tss.masks":                    {float64(c.Masks), "count"},
		"tss.probes_per_lookup":        {ratio(float64(reps[0].probes), lookups), "count"},
		"tss.stage_skip_ratio":         {ratio(float64(reps[0].stageSkips), float64(reps[0].probes)), "ratio"},
		"tss.publishes":                {publishes, "count"},
		"vswitch.miss_us_p50":          {usOf(quantile(durs[spMiss], 0.50)), "us"},
		"vswitch.miss_us_p99":          {usOf(quantile(durs[spMiss], 0.99)), "us"},
		"vswitch.installs":             {float64(c.Installs), "count"},
		"vswitch.sweep_ms":             {float64(total[spTick]) / 1e6, "ms"},
		"vswitch.slowpath_share":       {ratio(float64(c.SlowPath), float64(c.Packets)), "ratio"},
		"upcall.dedup_ratio": {med(func(r *repResult) float64 {
			return ratio(float64(r.up.Deduped), float64(r.up.Enqueued+r.up.Deduped))
		}), "ratio"},
		"upcall.max_backlog":          {med(func(r *repResult) float64 { return float64(r.up.MaxBacklog) }), "count"},
		"upcall.installs_per_publish": {ratio(float64(c.Installs), publishes), "ratio"},
		"upcall.submit_ns_p50":        {float64(quantile(durs[spSubmit], 0.50)), "ns"},
		"upcall.wait_us_p50":          {usOf(quantile(durs[spWait], 0.50)), "us"},
		"upcall.wait_us_p99":          {usOf(quantile(durs[spWait], 0.99)), "us"},
		"tracing.overhead":            {ratio(mpps, tracedMpps) - 1, "ratio"},
	}
}

// printMeta prints the run's metadata, so a noisy-neighbour run shows as
// such: CPU count, scheduler width, toolchain, seed, sample counts, and
// the host's CPU steal ticks over the timed loops.
func printMeta(log io.Writer, cfg config, in *input, reps []*repResult, bursts, setups int) {
	var steal uint64
	for _, r := range reps {
		steal += r.steal
	}
	meta := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"records": len(in.expected), "trace_sha256": in.checksum,
		"replays": len(reps), "burst_samples": bursts, "setup_samples": setups,
		"steal_ticks": steal,
	}
	b, _ := json.Marshal(meta) // a map of plain values always marshals
	fmt.Fprintf(log, "meta %s\n", b)
}

// printSpread prints the quartiles of the per-replay rate, so a run whose
// replays disagree, as under a noisy neighbour, shows as such.
func printSpread(log io.Writer, reps []*repResult) {
	mpps := make([]float64, len(reps))
	for i, r := range reps {
		mpps[i] = r.mpps()
	}
	slices.Sort(mpps)
	q := func(f float64) float64 { return mpps[int(f*float64(len(mpps)-1))] }
	fmt.Fprintf(log, "mpps over %d replays: min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g\n",
		len(mpps), q(0), q(0.25), q(0.5), q(0.75), q(1))
}

func printMetrics(log io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(log, "%s metrics:\n", kind)
	for _, n := range names {
		fmt.Fprintf(log, "  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printSpans prints each span name's call count and self time, and its
// share of the traced replay's dispatch time.
func printSpans(log io.Writer, tr *tracedResult) {
	total, calls := tr.tr.totals()
	var all int64
	for _, t := range total {
		all += t
	}
	fmt.Fprintf(log, "traced self time by span (%d packets):\n", tr.c.Packets)
	for n := range total {
		if calls[n] == 0 {
			continue
		}
		fmt.Fprintf(log, "  %-24s %9d calls %12.3f ms %6.1f%%\n", spanNames[n], calls[n],
			float64(total[n])/1e6, 100*ratio(float64(total[n]), float64(all)))
	}
}
