package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/trace"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

const (
	// ports is the vport count: vport 0 carries the flood, 1..3 victims.
	ports = 4
	// burst is the records decoded per dispatch, NETDEV_MAX_BURST.
	burst = datapath.DefaultBatchSize
)

// pipeline is what tsebench -replay builds: one PMD worker over 4 vports
// with its private 256-entry EMC, no prefetch pass, the inline slow path
// or (async) one upcall handler goroutine with unbounded queues.
type pipeline struct {
	sw   *vswitch.Switch
	pool *datapath.Pool
	rd   *trace.Reader
}

// setup builds the pipeline and maps the trace; its duration is setup_s.
func setup(path string, async bool) (*pipeline, error) {
	sw, err := vswitch.New(vswitch.Config{Table: benchACL(), DisableMicroflow: true})
	if err != nil {
		return nil, err
	}
	cfg := datapath.Config{Switch: sw, Workers: 1, Ports: ports}
	if async {
		cfg.Upcall = &upcall.Options{Handlers: 1}
	}
	pool, err := datapath.New(cfg)
	if err != nil {
		return nil, err
	}
	rd, err := trace.Open(path)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &pipeline{sw: sw, pool: pool, rd: rd}, nil
}

func (p *pipeline) close() {
	p.pool.Close()
	p.rd.Close()
}

// dispatch feeds one decoded batch to the pool the way trace.Replayer
// does for a single worker: split at tick boundaries, run the idle sweep
// before the first packets of a new tick, and dispatch each run serially.
// Unlike the Replayer it keeps every verdict, at out[i] for record i.
func dispatch(pool *datapath.Pool, b *trace.Batch, last int64, out []vswitch.Verdict) int64 {
	for i := 0; i < len(b.Ticks); {
		tick := b.Ticks[i]
		j := i + 1
		for j < len(b.Ticks) && b.Ticks[j] == tick {
			j++
		}
		if tick != last && last >= 0 {
			pool.Switch().Tick(tick)
		}
		last = tick
		pool.ProcessBatchSerialPorts(b.Ports[i:j], b.Keys[i:j], tick, out[i:j])
		i = j
	}
	return last
}

// counters are the verdict and install counters a traced run must
// reproduce exactly (see sameCounters for the async exemptions).
type counters struct {
	Packets, EMCHits, EMCMisses, EMCEvictions uint64
	MegaflowHits, SlowPath, Installs          uint64
	Masks                                     int
	Publishes                                 uint64
}

// repResult is one untraced replay of the whole trace from a fresh
// pipeline.
type repResult struct {
	decodeNs, dispatchNs int64 // their sum is the timed loop's wall time
	cpuNs                int64 // process user+sys over the timed loop
	mallocs              uint64
	gcs                  uint32
	steal                uint64 // /proc/stat steal ticks over the timed loop
	liveHeap             uint64 // bytes live after a forced GC, less the baseline
	c                    counters
	probes, stageSkips   uint64
	up                   upcall.Stats
	// errors counts verdicts that disagree with the oracle plus
	// conservation violations.
	errors uint64
}

func (r *repResult) packets() uint64 { return r.c.Packets }

func (r *repResult) mpps() float64 {
	return float64(r.c.Packets) * 1e3 / float64(r.decodeNs+r.dispatchNs)
}

// buffers holds the benchmark's own buffers, allocated once so they count
// in the live-heap baseline rather than against the program.
type buffers struct {
	batch  *trace.Batch
	out    []vswitch.Verdict
	bursts []int32 // this rep's dispatch wall times, ns
}

func newBuffers(records int) *buffers {
	return &buffers{
		batch:  trace.NewBatch(bitvec.IPv4Tuple.Words(), burst),
		out:    make([]vswitch.Verdict, burst),
		bursts: make([]int32, 0, records/burst+1),
	}
}

// runRep replays the trace once, untraced, from a fresh pipeline. The
// verdict check runs after each dispatch, outside the timed intervals.
func runRep(w workload, in *input, s *buffers) (*repResult, error) {
	var r repResult
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	p, err := setup(in.path, w.async)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if int(p.rd.Count()) != len(in.expected) {
		return nil, fmt.Errorf("trace holds %d records, oracle %d", p.rd.Count(), len(in.expected))
	}

	s.bursts = s.bursts[:0]
	var ru0, ru1 syscall.Rusage
	steal0 := readSteal()
	runtime.ReadMemStats(&ms)
	mallocs0, gc0 := ms.Mallocs, ms.NumGC
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	var (
		last int64 = -1
		off  int
	)
	t0 := time.Now()
	for {
		n := p.rd.Next(s.batch)
		t1 := time.Now()
		r.decodeNs += t1.Sub(t0).Nanoseconds()
		if n == 0 {
			break
		}
		last = dispatch(p.pool, s.batch, last, s.out)
		d := time.Since(t1).Nanoseconds()
		r.dispatchNs += d
		s.bursts = append(s.bursts, int32(d))
		for i, v := range s.out[:n] {
			if v.Action != in.expected[off+i] {
				r.errors++
			}
		}
		off += n
		t0 = time.Now()
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	r.cpuNs = cpuNs(&ru1) - cpuNs(&ru0)
	r.mallocs, r.gcs = ms.Mallocs-mallocs0, ms.NumGC-gc0
	r.steal = readSteal() - steal0

	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > baseline {
		r.liveHeap = ms.HeapAlloc - baseline
	}

	tot := p.pool.Totals()
	r.c = counters{
		Packets: tot.Packets, EMCHits: tot.EMC.Hits, EMCMisses: tot.EMC.Misses,
		EMCEvictions: tot.EMC.Evictions, MegaflowHits: tot.MegaflowHits,
		SlowPath: tot.SlowPath, Installs: p.sw.Counters().Installs,
		Masks: p.sw.MFC().MaskCount(), Publishes: p.sw.MFC().Stats().Publishes,
	}
	r.probes, r.stageSkips = tot.Probes, tot.StageSkips
	r.errors += conservation(r.c, off)
	if w.async {
		p.pool.Close() // drain the handler before reading its final state
		r.up = p.pool.Upcalls().Stats()
		r.errors += tot.UpcallDrops + uint64(r.up.PendingFlows)
	}
	return &r, nil
}

// conservation counts violations of the packet ledger: every replayed
// record was dispatched, and every dispatched packet was decided by
// exactly one layer.
func conservation(c counters, replayed int) uint64 {
	var bad uint64
	if c.Packets != uint64(replayed) {
		bad++
	}
	if c.Packets != c.EMCHits+c.MegaflowHits+c.SlowPath {
		bad++
	}
	return bad
}

// setupOnly times one set-up and tears it down.
func setupOnly(path string, async bool) (int64, error) {
	t := time.Now()
	p, err := setup(path, async)
	if err != nil {
		return 0, err
	}
	d := time.Since(t).Nanoseconds()
	p.close()
	return d, nil
}

func cpuNs(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}
