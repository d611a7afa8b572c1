package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/microflow"
	"tse/internal/trace"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// Span names: one per layer call the traced run times from outside, plus
// the dispatch that encloses one decoded batch.
const (
	spDispatch uint8 = iota // one decoded batch of up to 32 records
	spLookup                // microflow.Cache.LookupBatch
	spProcess               // vswitch.Switch.ProcessBatchOn
	spMiss                  // vswitch.Switch.HandleMiss (inline miss callback)
	spSubmit                // upcall.Subsystem.Submit (async miss callback)
	spWait                  // upcall.Ticket.Wait, all tickets of one burst
	spInsert                // microflow.Cache.Insert
	spTick                  // vswitch.Switch.Tick
	numSpans
)

var spanNames = [numSpans]string{
	"dispatch", "microflow.LookupBatch", "vswitch.ProcessBatchOn", "vswitch.HandleMiss",
	"upcall.Submit", "upcall.Wait", "microflow.Insert", "vswitch.Tick",
}

// span is one timed call. start and end are nanoseconds since the traced
// run began; parent indexes the enclosing span (-1 for a dispatch); spans
// of one dispatch share its burst id.
type span struct {
	start, end int64
	parent     int32
	burst      int32
	name       uint8
}

// tracer keeps every span in memory; they are written out at exit.
type tracer struct {
	epoch time.Time
	spans []span
	burst int32
}

func (t *tracer) begin(name uint8, parent int32) int32 {
	t.spans = append(t.spans, span{start: time.Since(t.epoch).Nanoseconds(),
		parent: parent, burst: t.burst, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.epoch).Nanoseconds() }

// selfTimes returns each span's duration less the time its children
// cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// totals sums self time and counts calls by span name.
func (t *tracer) totals() (self [numSpans]int64, calls [numSpans]int) {
	for i, ns := range t.selfTimes() {
		self[t.spans[i].name] += ns
		calls[t.spans[i].name]++
	}
	return self, calls
}

// write dumps the spans as tab-separated text, one per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(bw, "burst\tname\tstart_ns\tend_ns\tparent\n")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\n", s.burst, spanNames[s.name], s.start, s.end, s.parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedResult is one traced replay: the counters the fidelity check
// compares, and the spans.
type tracedResult struct {
	c        counters
	errors   uint64 // oracle mismatches and admission drops
	wallNs   int64  // decode plus dispatch time, as in the untraced run
	missPkts uint64 // packets handed to ProcessBatchOn
	tr       *tracer
}

// tracedPipe is the traced run's own assembly of the layers the pool
// wraps: the switch, one classifier handle and one EMC, plus the upcall
// subsystem on async workloads.
type tracedPipe struct {
	sw  *vswitch.Switch
	hd  *tss.Handle
	emc *microflow.Cache
	up  *upcall.Subsystem
	tr  *tracer
	res *tracedResult

	emcRes    []microflow.Result
	emcOK     []bool
	missHs    []bitvec.Vec
	missIdx   []int
	missPorts []int
	verdicts  []vswitch.Verdict
	tickets   []pendingTicket
}

type pendingTicket struct {
	t   upcall.Ticket
	idx int
}

// runTraced replays the trace once through the layers' public calls in
// the pool's burst order, recording a span per call.
func runTraced(w workload, in *input) (*tracedResult, error) {
	sw, err := vswitch.New(vswitch.Config{Table: benchACL(), DisableMicroflow: true})
	if err != nil {
		return nil, err
	}
	p := &tracedPipe{sw: sw, hd: sw.MFC().NewHandle(), emc: microflow.New(0),
		emcRes: make([]microflow.Result, burst), emcOK: make([]bool, burst),
		verdicts: make([]vswitch.Verdict, burst), res: &tracedResult{}}
	if w.async {
		if p.up, err = upcall.New(sw, ports, upcall.Options{Handlers: 1}); err != nil {
			return nil, err
		}
		p.up.Start()
		defer p.up.Stop()
	}
	rd, err := trace.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	b := trace.NewBatch(rd.Words(), burst)
	out := make([]vswitch.Verdict, burst)
	p.tr = &tracer{spans: make([]span, 0, 4*len(in.expected)/burst), epoch: time.Now()}
	p.res.tr = p.tr

	var (
		last int64 = -1
		off  int
	)
	for {
		t0 := time.Now()
		n := rd.Next(b)
		p.res.wallNs += time.Since(t0).Nanoseconds()
		if n == 0 {
			break
		}
		root := p.tr.begin(spDispatch, -1)
		for i := 0; i < n; {
			tick := b.Ticks[i]
			j := i + 1
			for j < n && b.Ticks[j] == tick {
				j++
			}
			if tick != last && last >= 0 {
				k := p.tr.begin(spTick, root)
				sw.Tick(tick)
				p.tr.end(k)
			}
			last = tick
			p.burst(b.Keys[i:j], b.Ports[i:j], tick, out[i:j], root)
			i = j
		}
		p.tr.end(root)
		p.res.wallNs += p.tr.spans[root].end - p.tr.spans[root].start
		p.tr.burst++
		for i, v := range out[:n] {
			if v.Action != in.expected[off+i] {
				p.res.errors++
			}
		}
		off += n
	}
	st := p.emc.Stats()
	c := &p.res.c
	c.EMCHits, c.EMCMisses, c.EMCEvictions = st.Hits, st.Misses, st.Evictions
	c.Installs = sw.Counters().Installs
	c.Masks = sw.MFC().MaskCount()
	c.Publishes = sw.MFC().Stats().Publishes
	return p.res, nil
}

// burst mirrors one PMD burst: EMC prepass, the batched megaflow path
// for the misses with the slow path as its miss callback, then EMC
// priming.
func (p *tracedPipe) burst(hs []bitvec.Vec, ports []int, now int64, out []vswitch.Verdict, root int32) {
	c := &p.res.c
	c.Packets += uint64(len(hs))
	k := p.tr.begin(spLookup, root)
	p.emc.LookupBatch(hs, p.emcRes[:len(hs)], p.emcOK[:len(hs)])
	p.tr.end(k)
	p.missHs, p.missIdx, p.missPorts = p.missHs[:0], p.missIdx[:0], p.missPorts[:0]
	for i := range hs {
		if p.emcOK[i] {
			out[i] = vswitch.Verdict{Action: p.emcRes[i].Action,
				OutPort: p.emcRes[i].OutPort, Path: vswitch.PathMicroflow}
			continue
		}
		p.missHs = append(p.missHs, hs[i])
		p.missIdx = append(p.missIdx, i)
		p.missPorts = append(p.missPorts, ports[i])
	}
	if len(p.missHs) == 0 {
		return
	}
	p.res.missPkts += uint64(len(p.missHs))
	vs := p.verdicts[:len(p.missHs)]
	pb := p.tr.begin(spProcess, root)
	if p.up == nil {
		p.sw.ProcessBatchOn(p.hd, p.missHs, now, vs, func(i, _ int) vswitch.Verdict {
			k := p.tr.begin(spMiss, pb)
			v := p.sw.HandleMiss(p.missHs[i], now)
			p.tr.end(k)
			return v
		})
		p.tr.end(pb)
	} else {
		p.tickets = p.tickets[:0]
		p.sw.ProcessBatchOn(p.hd, p.missHs, now, vs, func(i, probes int) vswitch.Verdict {
			k := p.tr.begin(spSubmit, pb)
			t, o := p.up.Submit(p.missPorts[i], p.missHs[i], now)
			p.tr.end(k)
			if o.Dropped() {
				p.res.errors++
				return vswitch.Verdict{Action: flowtable.Drop, Path: vswitch.PathUpcallDrop, Probes: probes}
			}
			p.tickets = append(p.tickets, pendingTicket{t: t, idx: i})
			return vswitch.Verdict{Path: vswitch.PathUpcallPending, Probes: probes}
		})
		p.tr.end(pb)
		if len(p.tickets) > 0 {
			k := p.tr.begin(spWait, root)
			for _, pt := range p.tickets {
				vs[pt.idx] = pt.t.Wait()
			}
			p.tr.end(k)
		}
	}
	for i, v := range vs {
		out[p.missIdx[i]] = v
		switch v.Path {
		case vswitch.PathMegaflow:
			c.MegaflowHits++
		case vswitch.PathSlow:
			c.SlowPath++
		default:
			continue
		}
		k := p.tr.begin(spInsert, root)
		p.emc.Insert(p.missHs[i], microflow.Result{Action: v.Action, OutPort: v.OutPort})
		p.tr.end(k)
	}
}
