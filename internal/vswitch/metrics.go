package vswitch

import "tse/internal/telemetry"

// AttachMetrics registers pull-model collectors over the switch's
// per-path packet counters and delegates the megaflow-cache families to
// the classifier's own AttachMetrics. The closures read Counters() — a
// mutex-protected snapshot copy — at scrape/snapshot time only, so the
// packet path pays nothing for a live /metrics endpoint.
func (s *Switch) AttachMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	ctr := func(get func(Counters) uint64) func() uint64 {
		return func() uint64 { return get(s.Counters()) }
	}
	reg.CounterFunc("tse_packets_microflow_total",
		"Packets decided by the exact-match microflow cache (OVS coverage: emc hits).",
		ctr(func(c Counters) uint64 { return c.Microflow }))
	reg.CounterFunc("tse_packets_megaflow_total",
		"Packets decided by the megaflow cache (OVS coverage: masked_hit).",
		ctr(func(c Counters) uint64 { return c.Megaflow }))
	reg.CounterFunc("tse_packets_slowpath_total",
		"Packets decided by the slow-path flow table (OVS coverage: upcalls / miss).",
		ctr(func(c Counters) uint64 { return c.Slow }))
	reg.CounterFunc("tse_packets_dropped_total",
		"Packets with a drop verdict.",
		ctr(func(c Counters) uint64 { return c.Dropped }))
	reg.CounterFunc("tse_packets_allowed_total",
		"Packets with an allow verdict.",
		ctr(func(c Counters) uint64 { return c.Allowed }))
	reg.CounterFunc("tse_megaflow_installs_total",
		"Megaflow installations from the slow path (OVS coverage: flow_add).",
		ctr(func(c Counters) uint64 { return c.Installs }))
	reg.CounterFunc("tse_megaflow_install_suppressed_total",
		"Installs skipped by the revalidator deletion quirk.",
		ctr(func(c Counters) uint64 { return c.Suppressed }))
	reg.CounterFunc("tse_megaflow_install_conflicts_total",
		"Installs abandoned on a benign overlap race with a mid-flight table swap.",
		ctr(func(c Counters) uint64 { return c.Conflicts }))
	reg.CounterFunc("tse_megaflow_install_errors_total",
		"Installs failed by the injected flow_put fault.",
		ctr(func(c Counters) uint64 { return c.InstallErrors }))
	s.mfc.AttachMetrics(reg)
}
