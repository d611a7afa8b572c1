package dataplane

import (
	"fmt"
	"math"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/vswitch"
)

// This file implements the time-stepped attack simulator that regenerates
// the Fig. 8 time series: victims offering load, an attacker replaying an
// adversarial trace at a configured rate, the real switch in the middle,
// and the cost model arbitrating the per-second CPU budget.

// Victim is one benign flow (an iperf session in the paper's testbeds).
type Victim struct {
	// Name labels the series ("Victim 1").
	Name string
	// Header is the flow's representative classifier key; all its packets
	// share it (single transport connection).
	Header bitvec.Vec
	// Port is the ingress vport the flow arrives on. Asynchronous runs
	// key upcall queues and admission quotas on it (a victim on its own
	// vport never shares a bucket with the flood); once any victim or
	// phase names a port, the multi-core synchronous runner pins flows to
	// workers by port too (rxq-to-PMD assignment) instead of by RSS hash.
	Port int
	// OfferedGbps is the offered load (iperf full rate).
	OfferedGbps float64
	// StartSec is the virtual second the flow begins.
	StartSec int
	// EstablishedProtection, if > 0, is the fraction of an established
	// flow's packets that bypass the megaflow scan. This phenomenological
	// knob reproduces the Fig. 8b anomaly the paper observed on OpenStack
	// ("the attack is effective only against newly established target
	// flows but causes minor harm to long-lasting flows"; the OVS authors
	// could not explain it, §5.5). Zero for mechanistic scenarios.
	EstablishedProtection float64
	// EstablishedAfterSec is how many consecutive seconds at >= 50 % of
	// the offered rate make the flow "established".
	EstablishedAfterSec int

	streak      int
	established bool
}

// AttackPhase is one attacker activity interval.
type AttackPhase struct {
	// Trace is replayed cyclically (keeping the spawned megaflows warm).
	Trace *core.Trace
	// Port is the ingress vport the attack arrives on (see Victim.Port).
	Port int
	// RatePps is the attack packet rate.
	RatePps int
	// StartSec (inclusive) and StopSec (exclusive) bound the phase.
	StartSec, StopSec int
	// InjectACL, if non-nil, replaces the switch's ACL when the phase
	// starts — the Fig. 8c Kubernetes move where the attacker installs
	// the malicious ACL mid-experiment (t2). The switch is rebuilt with
	// the same configuration but the new table.
	InjectACL *flowtable.Table
}

// Scenario wires a complete experiment.
type Scenario struct {
	// Name labels the experiment.
	Name string
	// Switch is the device under test.
	Switch *vswitch.Switch
	// NIC selects the cost profile.
	NIC NICProfile
	// BudgetOverride, if > 0, replaces the calibrated CPU budget
	// (the Fig. 8c Kubernetes testbed is a 2-core vagrant box, far weaker
	// than the synthetic server).
	BudgetOverride float64
	// Victims are the benign flows.
	Victims []*Victim
	// Phases are the attacker activity intervals.
	Phases []AttackPhase
	// DurationSec is the experiment length.
	DurationSec int
	// Workers selects the number of PMD-style datapath workers sharing the
	// switch; <= 1 runs the classic single-core pipeline. With N > 1
	// workers, packets are sharded RSS-style (see internal/datapath), the
	// scenario budget becomes a *per-core* budget — adding cores adds
	// capacity, as adding PMD threads does in OVS — and each Sample
	// carries per-worker series. The megaflow cache stays shared, so the
	// attack's mask count taxes every core's lookups.
	Workers int
	// Upcall, when non-nil, switches the run to the asynchronous slow
	// path: misses enqueue into bounded per-worker upcall queues drained
	// by a modelled handler service rate, with a revalidator loop
	// replacing inline idle expiry. See upcall.go; Workers <= 1 runs one
	// worker over the datapath pool.
	Upcall *UpcallParams
	// Telemetry, when non-nil, threads the hub's registry, journal and
	// tracer through the asynchronous run: the switch, classifier, PMD
	// pool, upcall subsystem and revalidator attach their metric families,
	// control-plane events (ACL swaps, fault injections, breaker
	// transitions, quota retunes, sweeps) land in the journal, and sampled
	// upcalls get trace spans. Any hub field may be nil. The synchronous
	// runners ignore it — the async path is where the slow-path machinery
	// this layer observes lives.
	Telemetry *telemetry.Hub
}

// Sample is one per-second observation.
type Sample struct {
	// Sec is the virtual time.
	Sec int
	// VictimGbps has one throughput per scenario victim (zero before its
	// start).
	VictimGbps []float64
	// TotalVictimGbps sums VictimGbps (the "Victim SUM" series of
	// Fig. 8a).
	TotalVictimGbps float64
	// AttackPps is the attack rate in effect.
	AttackPps int
	// Masks and Entries snapshot the MFC (the megaflow count axis of
	// Fig. 8c).
	Masks, Entries int
	// AttackCost is the CPU share consumed by attack traffic, and Budget
	// the total, letting callers derive slow-path load. For multi-core
	// runs Budget is the aggregate across workers.
	AttackCost, Budget float64
	// WorkerAttackCost is the attack CPU cost absorbed by each worker and
	// WorkerVictimGbps the victim throughput served by each worker; both
	// are nil for single-core runs.
	WorkerAttackCost []float64
	WorkerVictimGbps []float64
	// Upcall carries the per-second queue/handler/revalidator series of
	// asynchronous-slow-path runs; nil otherwise.
	Upcall *UpcallSample
}

// portCount returns the number of ingress vports the scenario's traffic
// mix names (1 + the highest port in use).
func (sc *Scenario) portCount() int {
	n := 1
	for _, v := range sc.Victims {
		if v.Port+1 > n {
			n = v.Port + 1
		}
	}
	for i := range sc.Phases {
		if sc.Phases[i].Port+1 > n {
			n = sc.Phases[i].Port + 1
		}
	}
	return n
}

// Run executes the scenario and returns one sample per second.
func (sc *Scenario) Run() ([]Sample, error) {
	if sc.Switch == nil {
		return nil, fmt.Errorf("dataplane: scenario %q has no switch", sc.Name)
	}
	if err := sc.NIC.Validate(); err != nil {
		return nil, err
	}
	model := NewModel(sc.NIC)
	budget := model.Budget()
	if sc.BudgetOverride > 0 {
		budget = sc.BudgetOverride
	}
	if sc.Upcall != nil {
		return sc.runAsync(budget)
	}
	if sc.Workers > 1 {
		return sc.runMulticore(budget)
	}
	cursor := make([]int, len(sc.Phases)) // per-phase trace replay position

	samples := make([]Sample, 0, sc.DurationSec)
	for t := 0; t < sc.DurationSec; t++ {
		now := int64(t)
		sc.Switch.Tick(now) // 10 s idle eviction

		// Attack activity.
		attackCost := 0.0
		attackPps := 0
		for i := range sc.Phases {
			ph := &sc.Phases[i]
			if t < ph.StartSec || t >= ph.StopSec {
				continue
			}
			if t == ph.StartSec && ph.InjectACL != nil {
				if err := sc.swapACL(ph.InjectACL); err != nil {
					return nil, err
				}
			}
			attackPps += ph.RatePps
			attackCost += sc.replay(ph, &cursor[i], now, sc.NIC)
		}

		// Victims: probe each flow's current classification cost.
		remaining := budget - attackCost
		if remaining < 0 {
			remaining = 0
		}
		costs := make([]float64, len(sc.Victims))
		offered := make([]float64, len(sc.Victims))
		for i, v := range sc.Victims {
			if t < v.StartSec {
				continue
			}
			verdict := sc.Switch.Process(v.Header, now)
			costs[i] = sc.victimCost(v, verdict)
			offered[i] = v.OfferedGbps * 1e9 / 8 / PacketBytes // pps
		}

		pps := waterfill(offered, costs, remaining, sc.NIC.LinePps())

		sample := Sample{
			Sec:        t,
			VictimGbps: make([]float64, len(sc.Victims)),
			AttackPps:  attackPps,
			Masks:      sc.Switch.MFC().MaskCount(),
			Entries:    sc.Switch.MFC().EntryCount(),
			AttackCost: attackCost,
			Budget:     budget,
		}
		for i, v := range sc.Victims {
			g := pps[i] * PacketBytes * 8 / 1e9
			sample.VictimGbps[i] = g
			sample.TotalVictimGbps += g
			v.trackEstablishment(t, g)
		}
		samples = append(samples, sample)
	}
	return samples, nil
}

// runMulticore executes the scenario over a PMD-style worker pool: attack
// and victim packets shard to workers by RSS hash — or, when the traffic
// mix names ingress vports, by port (rxq-to-PMD assignment, matching the
// async runner) — each worker has its own per-core CPU budget, and the
// samples carry per-worker series. The pool's
// per-worker EMCs are disabled: the simulator prices each victim flow from
// one probe packet per second, which with an EMC in front would always be
// an exact-match hit and never observe the megaflow scan cost the attack
// inflates (the same reason the Fig. 8 scenarios disable the switch-level
// microflow cache).
func (sc *Scenario) runMulticore(perCore float64) ([]Sample, error) {
	usePorts := sc.portCount() > 1
	cfg := datapath.Config{Switch: sc.Switch, Workers: sc.Workers, DisableEMC: true}
	if usePorts {
		cfg.Ports = sc.portCount()
	}
	pool, err := datapath.New(cfg)
	if err != nil {
		return nil, err
	}
	nw := pool.Workers()
	cursor := make([]int, len(sc.Phases))
	samples := make([]Sample, 0, sc.DurationSec)
	var batch []bitvec.Vec
	var ports []int
	var verdicts []vswitch.Verdict
	for t := 0; t < sc.DurationSec; t++ {
		now := int64(t)
		sc.Switch.Tick(now)

		// Attack activity, sharded across the workers.
		workerAttack := make([]float64, nw)
		attackPps := 0
		for i := range sc.Phases {
			ph := &sc.Phases[i]
			if t < ph.StartSec || t >= ph.StopSec {
				continue
			}
			if t == ph.StartSec && ph.InjectACL != nil {
				if err := sc.swapACL(ph.InjectACL); err != nil {
					return nil, err
				}
				pool.FlushEMC()
			}
			attackPps += ph.RatePps
			tr := ph.Trace
			if tr == nil || tr.Len() == 0 {
				continue
			}
			batch = batch[:0]
			ports = ports[:0]
			for k := 0; k < ph.RatePps; k++ {
				batch = append(batch, tr.Headers[cursor[i]%tr.Len()])
				ports = append(ports, ph.Port)
				cursor[i]++
			}
			verdicts = pool.ProcessBatchSerialPorts(portsOrNil(usePorts, ports), batch, now, verdicts)
			assign := pool.Assignments()
			for k, v := range verdicts[:len(batch)] {
				workerAttack[assign[k]] += verdictCost(v, sc.NIC)
			}
		}

		// Victims: per-flow classification cost and RSS worker assignment.
		costs := make([]float64, len(sc.Victims))
		offered := make([]float64, len(sc.Victims))
		workerOf := make([]int, len(sc.Victims))
		for i, v := range sc.Victims {
			if usePorts {
				workerOf[i] = pool.PortWorker(v.Port)
			} else {
				workerOf[i] = pool.WorkerFor(v.Header)
			}
			if t < v.StartSec {
				continue
			}
			verdict := sc.Switch.Process(v.Header, now)
			costs[i] = sc.victimCost(v, verdict)
			offered[i] = v.OfferedGbps * 1e9 / 8 / PacketBytes // pps
		}

		pps := waterfillWorkers(nw, workerOf, offered, costs, workerAttack,
			perCore, sc.NIC.LinePps())

		sample := Sample{
			Sec:              t,
			VictimGbps:       make([]float64, len(sc.Victims)),
			AttackPps:        attackPps,
			Masks:            sc.Switch.MFC().MaskCount(),
			Entries:          sc.Switch.MFC().EntryCount(),
			Budget:           perCore * float64(nw),
			WorkerAttackCost: workerAttack,
			WorkerVictimGbps: make([]float64, nw),
		}
		for _, c := range workerAttack {
			sample.AttackCost += c
		}
		for i, v := range sc.Victims {
			g := pps[i] * PacketBytes * 8 / 1e9
			sample.VictimGbps[i] = g
			sample.TotalVictimGbps += g
			sample.WorkerVictimGbps[workerOf[i]] += g
			v.trackEstablishment(t, g)
		}
		samples = append(samples, sample)
	}
	return samples, nil
}

// victimCost prices one victim packet from its probe verdict, including
// the Fig. 8b established-flow protection blend.
func (sc *Scenario) victimCost(v *Victim, verdict vswitch.Verdict) float64 {
	probes := float64(verdict.Probes)
	cost := (sc.NIC.BaseCost + sc.NIC.ProbeCost*probes) / sc.NIC.Coalesce
	if verdict.Path == vswitch.PathSlow {
		cost += sc.NIC.SlowPathCost / sc.NIC.Coalesce
	}
	if v.established && v.EstablishedProtection > 0 {
		cost = v.EstablishedProtection*sc.NIC.MicroflowCost +
			(1-v.EstablishedProtection)*cost
	}
	return cost
}

// trackEstablishment updates the flow's Fig. 8b establishment state from
// one second's achieved throughput.
func (v *Victim) trackEstablishment(t int, gbps float64) {
	if t < v.StartSec || v.OfferedGbps <= 0 {
		return
	}
	if gbps >= 0.5*v.OfferedGbps {
		v.streak++
	} else {
		v.streak = 0
	}
	if v.EstablishedAfterSec > 0 && v.streak >= v.EstablishedAfterSec {
		v.established = true
	}
}

// replay sends one second's worth of attack packets through the switch,
// cycling through the trace, and returns their total CPU cost.
func (sc *Scenario) replay(ph *AttackPhase, cursor *int, now int64, nic NICProfile) float64 {
	tr := ph.Trace
	if tr == nil || tr.Len() == 0 {
		return 0
	}
	cost := 0.0
	for k := 0; k < ph.RatePps; k++ {
		h := tr.Headers[*cursor%tr.Len()]
		*cursor++
		cost += verdictCost(sc.Switch.Process(h, now), nic)
	}
	return cost
}

// VerdictCost prices one attack packet by the cache layer that decided it
// — the per-packet cost model the cluster fabric's per-node tick loop
// shares with the scenario runners.
func VerdictCost(v vswitch.Verdict, nic NICProfile) float64 {
	return verdictCost(v, nic)
}

// VictimCost prices one benign packet from its probe verdict: the coalesced
// per-packet classification cost without the Fig. 8b establishment blend
// (which is per-Victim state the fleet does not model).
func VictimCost(v vswitch.Verdict, nic NICProfile) float64 {
	cost := (nic.BaseCost + nic.ProbeCost*float64(v.Probes)) / nic.Coalesce
	if v.Path == vswitch.PathSlow {
		cost += nic.SlowPathCost / nic.Coalesce
	}
	return cost
}

// WaterfillWorkers is the exported multi-core allocation step: the
// per-core budget waterfill over each worker's victims followed by one
// global pass for the shared line rate. The cluster fabric runs it per
// node with that node's worker count and attack-cost vector.
func WaterfillWorkers(nw int, workerOf []int, offered, costs, workerAttack []float64, perCore, linePps float64) []float64 {
	return waterfillWorkers(nw, workerOf, offered, costs, workerAttack, perCore, linePps)
}

// verdictCost prices one attack packet by the cache layer that decided it.
func verdictCost(v vswitch.Verdict, nic NICProfile) float64 {
	switch v.Path {
	case vswitch.PathMicroflow:
		return nic.MicroflowCost
	case vswitch.PathMegaflow:
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes)
	case vswitch.PathSlow:
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes) + nic.SlowPathCost
	case vswitch.PathUpcallPending, vswitch.PathUpcallDrop:
		// The datapath paid the full-scan miss; the slow-path
		// classification either runs later on the handler budget
		// (pending) or never (drop), so neither is charged to the core.
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes)
	}
	return 0
}

// swapACL rebuilds the scenario switch around a new flow table, keeping
// the megaflow cache contents (OVS keeps the datapath cache across
// OpenFlow table updates until revalidation; for the Fig. 8c scenario the
// pre-injection cache holds only benign entries, so this is faithful
// enough and much simpler).
func (sc *Scenario) swapACL(tbl *flowtable.Table) error {
	_, err := sc.Switch.ReplaceTable(tbl)
	return err
}

// waterfillWorkers runs the per-core budget waterfill over each worker's
// victims, then one global pass for the shared line rate — the multi-core
// allocation step shared by the sync and async runners.
func waterfillWorkers(nw int, workerOf []int, offered, costs, workerAttack []float64, perCore, linePps float64) []float64 {
	pps := make([]float64, len(offered))
	for w := 0; w < nw; w++ {
		var idxs []int
		for i := range offered {
			if workerOf[i] == w && offered[i] > 0 {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		subOff := make([]float64, len(idxs))
		subCost := make([]float64, len(idxs))
		for j, i := range idxs {
			subOff[j], subCost[j] = offered[i], costs[i]
		}
		remaining := perCore - workerAttack[w]
		if remaining < 0 {
			remaining = 0
		}
		alloc := waterfill(subOff, subCost, remaining, math.Inf(1))
		for j, i := range idxs {
			pps[i] = alloc[j]
		}
	}
	total := 0.0
	for _, x := range pps {
		total += x
	}
	if total > linePps && total > 0 {
		scale := linePps / total
		for i := range pps {
			pps[i] *= scale
		}
	}
	return pps
}

// waterfill allocates CPU budget and line rate across victims: each victim
// i wants offered[i] pps at costs[i] units per packet. Allocation is
// proportionally fair under both the CPU budget and the aggregate line
// rate (iperf TCP flows share the bottleneck roughly equally, Fig. 8a).
func waterfill(offered, costs []float64, budget, linePps float64) []float64 {
	pps := make([]float64, len(offered))
	totalCost := 0.0
	totalPps := 0.0
	for i := range offered {
		pps[i] = offered[i]
		totalCost += offered[i] * costs[i]
		totalPps += offered[i]
	}
	if totalCost > budget && totalCost > 0 {
		scale := budget / totalCost
		totalPps = 0
		for i := range pps {
			pps[i] *= scale
			totalPps += pps[i]
		}
	}
	if totalPps > linePps && totalPps > 0 {
		scale := linePps / totalPps
		for i := range pps {
			pps[i] *= scale
		}
	}
	return pps
}
