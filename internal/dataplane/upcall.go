package dataplane

import (
	"math"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/faults"
	"tse/internal/telemetry"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// This file implements the asynchronous-slow-path scenario dimension: the
// time-stepped simulator driven over the upcall subsystem, regenerating
// the slow-path saturation regime the paper's attack creates (every attack
// packet is a flow miss; the queue bounds, fairness quotas and handler
// service rate decide who gets slow-path service and whose megaflows get
// installed). Queues and quotas are keyed by ingress vport — the
// granularity OVS rate-limits upcalls at — so per-port traffic mixes
// (attacker port vs victim ports) exercise the fairness story exactly.

// UpcallParams switches a scenario to the asynchronous slow path.
type UpcallParams struct {
	// QueueCap bounds each vport's upcall queue (0 = unbounded).
	QueueCap int
	// QuotaPerPort is the per-vport per-second admission quota, the
	// OVS-style upcall rate limit (0 = off). Ignored when Adaptive is
	// set: the controller owns the quota and re-tunes it within
	// [MinQuota, BaseQuota] every sweep, so Adaptive.BaseQuota is
	// authoritative.
	QuotaPerPort int
	// WorkerKeyedQuota keys queues and quotas on the PMD worker index
	// instead of the ingress vport — the legacy pre-vport behaviour, kept
	// as the ablation the portfairness experiment measures: a victim
	// sharing a worker with the flood then shares its admission bucket.
	WorkerKeyedQuota bool
	// Adaptive, when non-nil, closes the feedback loop: each revalidator
	// sweep measures every vport's megaflow footprint (plus churn) and
	// re-tunes its quota, so the flooding port throttles itself while
	// victim ports keep their full budget.
	Adaptive *upcall.AdaptiveQuota
	// HandledPerSec is the handler service rate: how many upcalls the
	// slow-path daemon classifies per virtual second (<= 0 = unlimited —
	// the whole backlog drains every second). This is the saturation
	// knob: the paper's testbed saturates ovs-vswitchd towards 50k
	// upcalls/s (Fig. 9c). Drained upcalls resolve in bursts that share
	// one megaflow-install transaction (upcall.Options.HandlerBurst).
	HandledPerSec int
	// RevalidateSec is the revalidator cadence in virtual seconds; <= 0
	// selects 1. The revalidator replaces the inline Switch.Tick idle
	// expiry and additionally re-checks entries against the current flow
	// table, so mid-run ACL injections take effect at this cadence.
	RevalidateSec int64

	// ModelledHandlers is the drive-mode handler fleet size the fault
	// model spreads HandledPerSec across (a dead handler costs its 1/N
	// service share); <= 0 selects 1. Only meaningful with Faults.
	ModelledHandlers int
	// StallTimeoutSec is the modelled supervisor's stall-detection horizon
	// in virtual seconds; <= 0 selects upcall.DefaultStallTimeoutSec.
	StallTimeoutSec int64
	// DisableSupervisor is the chaos ablation: dead handlers are never
	// respawned and their orphaned in-flight upcalls leak in the pending
	// table (see upcall.Options.DisableSupervisor).
	DisableSupervisor bool
	// PendingAgeSec is the revalidator's orphaned-pending-entry reap
	// horizon (upcall.RevalidatorConfig.PendingAgeSec semantics: 0
	// defaults, negative disables).
	PendingAgeSec int64
	// Breaker configures the per-port SLO circuit breaker; the zero value
	// (SLOSec == 0) disables it.
	Breaker upcall.Breaker
	// Faults is the optional deterministic fault schedule, threaded into
	// the upcall subsystem (handler panics/stalls, delivery faults), the
	// revalidator (sweep stalls) and the switch (install errors).
	Faults *faults.Plan
}

// UpcallSample is the per-second queue/handler/revalidator series of an
// asynchronous run.
type UpcallSample struct {
	// Enqueued, Deduped, QueueDrops and QuotaDrops are this second's
	// admission outcomes; Handled is the number of upcalls the handler
	// budget served and Installed the megaflows that produced.
	Enqueued, Deduped, QueueDrops, QuotaDrops, Handled, Installed int
	// Backlog is the queue depth left at the end of the second.
	Backlog int
	// Expired and Invalidated are the revalidator's deletions this second.
	Expired, Invalidated int
	// HandlerCost is the CPU this second's handler work consumed, in the
	// same units as Sample.AttackCost. Handler threads are separate from
	// the PMD cores (as ovs-vswitchd is), so it is reported, not
	// subtracted from the per-core budgets.
	HandlerCost float64
	// PortQuota is each upcall source's admission quota in effect at the
	// end of the second (after any adaptive re-tune), and PortQuotaDrops
	// the second's quota refusals per source. Sources are vports, or PMD
	// workers under WorkerKeyedQuota.
	PortQuota      []int
	PortQuotaDrops []int
	// FlowSetupP50 and FlowSetupP99 are this second's flow-setup latency
	// percentiles in virtual seconds: how long the upcalls handled this
	// second sat queued between admission and handler pop (the queueing
	// delay a cache miss pays behind a flooded backlog before its
	// megaflow installs). -1 when no upcall was handled this second.
	FlowSetupP50, FlowSetupP99 int
	// PortFlowSetupP50/P99 split the same percentiles per upcall source,
	// aligned with PortQuota; -1 for sources that handled nothing this
	// second.
	PortFlowSetupP50, PortFlowSetupP99 []int
	// PendingFlows is the pending-table size at the end of the second: a
	// value that stays elevated after the backlog drains is the leak
	// signature the supervisor/reaper exist to prevent.
	PendingFlows int
	// HandlerPanics, StallsDetected and HandlerRestarts are this second's
	// supervisor events; Requeued counts orphaned in-flight upcalls
	// returned to the queues and PendingReaped aged-out pending entries
	// failed by the revalidator's reaper.
	HandlerPanics, StallsDetected, HandlerRestarts, Requeued, PendingReaped int
	// BreakerTrips counts breakers tripping open this second and
	// BreakerShed submissions fast-failed by non-closed breakers;
	// PortBreaker is each source's breaker phase at the end of the second
	// ("closed"/"open"/"half-open"), nil when the breaker is disabled.
	BreakerTrips, BreakerShed int
	PortBreaker               []string
	// InstallErrors counts megaflow installs failed by the injected
	// install fault this second; SweepStalls counts revalidator sweeps an
	// injected stall suppressed.
	InstallErrors, SweepStalls int
	// OrphanPressure is this second's dumped-entry count attributed to
	// ingress ports outside the upcall subsystem's source range
	// (upcall.RevalidatorStats.OrphanPressure delta): megaflow footprint
	// the adaptive controller measured but could not feed back into any
	// quota.
	OrphanPressure int
}

// portsOrNil returns the explicit ingress-port slice for port-aware
// scenarios, or nil so the pool falls back to RSS-derived dispatch.
func portsOrNil(usePorts bool, ports []int) []int {
	if usePorts {
		return ports
	}
	return nil
}

// runAsync executes the scenario over a PMD-style pool whose misses go
// through the vport-keyed upcall subsystem in fire-and-forget mode,
// drained once per virtual second by the modelled handler service rate.
// Per-worker EMCs are disabled for the same observability reason as
// runMulticore.
//
// Within each virtual second the victims' probes land mid-flood: half of
// each attack phase's packets are dispatched first, then the victims, then
// the rest. A steady one-probe-per-second flow arrives at an effectively
// uniform position inside the second, and granting it the head-of-second
// slot would hand every victim a fresh admission bucket before the flood —
// exactly the order-dependence the per-port quotas exist to remove.
func (sc *Scenario) runAsync(perCore float64) ([]Sample, error) {
	up := sc.Upcall
	nw := sc.Workers
	if nw < 1 {
		nw = 1
	}
	quota := up.QuotaPerPort
	if up.Adaptive != nil {
		// The adaptive controller owns the quota: its range is
		// [MinQuota, BaseQuota] and every sweep re-tunes within it, so a
		// different static QuotaPerPort could not survive the first sweep
		// anyway. BaseQuota is authoritative.
		quota = up.Adaptive.BaseQuota
	}
	// A scenario that never names an ingress port (all traffic on vport 0)
	// keeps the legacy port-oblivious shape: one vport per worker with
	// RSS-derived dispatch, so multi-worker runs still spread across the
	// cores exactly as before the port dimension existed. Naming ports
	// switches to explicit port-pinned dispatch.
	usePorts := sc.portCount() > 1
	ports := nw
	if usePorts {
		ports = sc.portCount()
	}
	// Unpack the optional telemetry hub; every consumer below is nil-safe.
	var reg *telemetry.Registry
	var journal *telemetry.Journal
	var tracer *telemetry.Tracer
	if sc.Telemetry != nil {
		reg, journal, tracer = sc.Telemetry.Reg, sc.Telemetry.Journal, sc.Telemetry.Tracer
	}
	if reg != nil {
		sc.Switch.AttachMetrics(reg)
	}
	pool, err := datapath.New(datapath.Config{
		Switch:         sc.Switch,
		Workers:        nw,
		Ports:          ports,
		SourceByWorker: up.WorkerKeyedQuota,
		Metrics:        reg,
		// Handlers stays 0: the simulator owns the drain (HandleN below)
		// so runs are deterministic.
		Upcall: &upcall.Options{
			QueueCap:          up.QueueCap,
			QuotaPerSource:    quota,
			ModelledHandlers:  up.ModelledHandlers,
			StallTimeoutSec:   up.StallTimeoutSec,
			DisableSupervisor: up.DisableSupervisor,
			Injector:          up.Faults,
			Breaker:           up.Breaker,
			Metrics:           reg,
			Journal:           journal,
			Tracer:            tracer,
		},
		DisableEMC: true,
	})
	if err != nil {
		return nil, err
	}
	if up.Faults != nil {
		// Install errors are the switch's side of the fault schedule: a
		// window during which HandleMissBatch refuses to install megaflows,
		// so every packet of the affected flows keeps missing.
		sc.Switch.SetInstallFault(up.Faults.InstallErrorAt)
	}
	sub := pool.Upcalls()
	rvCfg := upcall.RevalidatorConfig{
		Switch:        sc.Switch,
		IntervalSec:   up.RevalidateSec,
		PendingAgeSec: up.PendingAgeSec,
		Injector:      up.Faults,
		Journal:       journal,
		Metrics:       reg,
	}
	if up.Adaptive != nil {
		rvCfg.Subsystem = sub
		rvCfg.Adapt = up.Adaptive
	}
	if up.PendingAgeSec != 0 || up.Faults != nil {
		// The pending reaper needs the subsystem even without the adaptive
		// controller.
		rvCfg.Subsystem = sub
	}
	rv, err := upcall.NewRevalidator(rvCfg)
	if err != nil {
		return nil, err
	}

	cursor := make([]int, len(sc.Phases))
	injected := make([]bool, len(sc.Phases))
	samples := make([]Sample, 0, sc.DurationSec)
	var batch []bitvec.Vec
	var batchPorts []int
	var verdicts []vswitch.Verdict
	var vIdx []int
	prevStats := sub.Stats()
	prevPer := sub.PerSource()
	prevInstalls := sc.Switch.Counters().Installs
	prevInstallErrs := sc.Switch.Counters().InstallErrors
	prevRv := rv.Stats()
	for t := 0; t < sc.DurationSec; t++ {
		now := int64(t)
		// Journal this tick's scheduled fault injections before anything
		// fires, so the timeline shows cause (injection) strictly before
		// effect (panic, stall, shed). Delivery faults get their own kind.
		if journal != nil && up.Faults != nil {
			for _, ev := range up.Faults.ScheduledAt(now) {
				kind, actor := telemetry.EvFaultInjected, ev.Handler
				switch ev.Kind {
				case faults.DeliverDelay, faults.DeliverDuplicate:
					kind, actor = telemetry.EvDeliveryFault, ev.Source
				case faults.RevalidatorStall, faults.InstallError:
					actor = -1
				}
				journal.RecordNote(now, kind, actor, ev.Duration, ev.Kind.String())
			}
		}
		// The revalidator owns megaflow lifecycle: idle expiry plus
		// dump-and-check against the current table (and, in adaptive mode,
		// the per-port quota re-tune). No Switch.Tick here.
		rvRes := rv.Tick(now)

		workerAttack := make([]float64, nw)
		costs := make([]float64, len(sc.Victims))
		offered := make([]float64, len(sc.Victims))
		workerOf := make([]int, len(sc.Victims))
		attackPps := 0

		// replayPhase dispatches up to n of phase i's packets this second,
		// applying the phase's ACL injection on first activation.
		replayPhase := func(i, n int) error {
			ph := &sc.Phases[i]
			if t == ph.StartSec && ph.InjectACL != nil && !injected[i] {
				injected[i] = true
				// Asynchronous deployment: the table swap is applied
				// without an inline sweep; the revalidator's next pass
				// deletes stale megaflows (dump-and-check).
				if err := sc.Switch.SwapTable(ph.InjectACL); err != nil {
					return err
				}
				pool.FlushEMC()
				journal.RecordNote(now, telemetry.EvACLSwap, ph.Port, 0,
					"mid-run ACL injection")
			}
			tr := ph.Trace
			if tr == nil || tr.Len() == 0 || n <= 0 {
				return nil
			}
			batch, batchPorts = batch[:0], batchPorts[:0]
			for k := 0; k < n; k++ {
				batch = append(batch, tr.Headers[cursor[i]%tr.Len()])
				if usePorts {
					batchPorts = append(batchPorts, ph.Port)
				}
				cursor[i]++
			}
			verdicts = pool.ProcessBatchDeferredPorts(portsOrNil(usePorts, batchPorts), batch, now, verdicts)
			assign := pool.Assignments()
			for k, v := range verdicts[:len(batch)] {
				workerAttack[assign[k]] += verdictCost(v, sc.NIC)
			}
			return nil
		}

		active := func(i int) bool {
			return t >= sc.Phases[i].StartSec && t < sc.Phases[i].StopSec
		}

		// First half of the flood.
		for i := range sc.Phases {
			if !active(i) {
				continue
			}
			attackPps += sc.Phases[i].RatePps
			if err := replayPhase(i, sc.Phases[i].RatePps/2); err != nil {
				return nil, err
			}
		}

		// Victims probe mid-second.
		batch, batchPorts, vIdx = batch[:0], batchPorts[:0], vIdx[:0]
		for i, v := range sc.Victims {
			if usePorts {
				workerOf[i] = pool.PortWorker(v.Port)
			} else {
				workerOf[i] = pool.WorkerFor(v.Header)
			}
			if t < v.StartSec {
				continue
			}
			batch = append(batch, v.Header)
			if usePorts {
				batchPorts = append(batchPorts, v.Port)
			}
			vIdx = append(vIdx, i)
			offered[i] = v.OfferedGbps * 1e9 / 8 / PacketBytes // pps
		}
		verdicts = pool.ProcessBatchDeferredPorts(portsOrNil(usePorts, batchPorts), batch, now, verdicts)
		for k, i := range vIdx {
			costs[i] = sc.victimCost(sc.Victims[i], verdicts[k])
			if verdicts[k].Path == vswitch.PathUpcallDrop {
				// The flow's setup packet was refused at admission: the
				// datapath is dropping the flow on the floor, so it moves
				// no traffic this second. This is the loss the per-port
				// quotas protect victims from.
				offered[i] = 0
			}
		}

		// Second half of the flood.
		for i := range sc.Phases {
			if !active(i) {
				continue
			}
			if err := replayPhase(i, sc.Phases[i].RatePps-sc.Phases[i].RatePps/2); err != nil {
				return nil, err
			}
		}

		// Handlers drain on their own service budget, round-robin across
		// the vport queues; leftovers stay queued into the next second.
		budget := up.HandledPerSec
		if budget <= 0 {
			budget = math.MaxInt
		}
		handled := sub.HandleNAt(budget, now)
		// Breakers advance on the same cadence as the handler drain: each
		// virtual second is one observation interval.
		sub.TickBreakers(now)

		st := sub.Stats()
		per := sub.PerSource()
		counters := sc.Switch.Counters()
		installs := counters.Installs
		rvStats := rv.Stats()
		// This second's flow-setup latency distribution: the residence
		// histograms are cumulative, so the per-second series is the delta
		// against the previous sample's snapshot.
		resDelta := st.Residence.Delta(prevStats.Residence)
		usample := &UpcallSample{
			Enqueued:         int(st.Enqueued - prevStats.Enqueued),
			Deduped:          int(st.Deduped - prevStats.Deduped),
			QueueDrops:       int(st.QueueDrops - prevStats.QueueDrops),
			QuotaDrops:       int(st.QuotaDrops - prevStats.QuotaDrops),
			Handled:          handled,
			Installed:        int(installs - prevInstalls),
			Backlog:          st.Backlog,
			Expired:          rvRes.Expired,
			Invalidated:      rvRes.Invalidated,
			HandlerCost:      float64(handled) * sc.NIC.SlowPathCost,
			PortQuota:        make([]int, len(per)),
			PortQuotaDrops:   make([]int, len(per)),
			FlowSetupP50:     int(resDelta.P50()),
			FlowSetupP99:     int(resDelta.P99()),
			PortFlowSetupP50: make([]int, len(per)),
			PortFlowSetupP99: make([]int, len(per)),
			PendingFlows:     st.PendingFlows,
			HandlerPanics:    int(st.HandlerPanics - prevStats.HandlerPanics),
			StallsDetected:   int(st.StallsDetected - prevStats.StallsDetected),
			HandlerRestarts:  int(st.HandlerRestarts - prevStats.HandlerRestarts),
			Requeued:         int(st.Requeued - prevStats.Requeued),
			PendingReaped:    int(st.PendingReaped - prevStats.PendingReaped),
			BreakerTrips:     int(st.BreakerTrips - prevStats.BreakerTrips),
			BreakerShed:      int(st.BreakerShed - prevStats.BreakerShed),
			InstallErrors:    int(counters.InstallErrors - prevInstallErrs),
			SweepStalls:      int(rvStats.SweepStalls - prevRv.SweepStalls),
			OrphanPressure:   int(rvStats.OrphanPressure - prevRv.OrphanPressure),
		}
		if usample.InstallErrors > 0 {
			journal.Record(now, telemetry.EvInstallError, -1, int64(usample.InstallErrors))
		}
		if phases := sub.BreakerPhases(); phases != nil {
			usample.PortBreaker = make([]string, len(phases))
			for p, ph := range phases {
				usample.PortBreaker[p] = ph.String()
			}
		}
		for p := range per {
			usample.PortQuota[p] = sub.QuotaFor(p)
			usample.PortQuotaDrops[p] = int(per[p].QuotaDrops - prevPer[p].QuotaDrops)
			d := per[p].Residence.Delta(prevPer[p].Residence)
			usample.PortFlowSetupP50[p] = int(d.P50())
			usample.PortFlowSetupP99[p] = int(d.P99())
		}
		prevStats, prevPer, prevInstalls = st, per, installs
		prevInstallErrs, prevRv = counters.InstallErrors, rvStats

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
			Upcall:           usample,
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
