package dataplane

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/trace"
	"tse/internal/vswitch"
)

// This file is the wall-clock counterpart of scenario.go: instead of a
// virtual-time cost model, a trace replayed through the real pipeline
// (EMC → megaflow scan → slow path) as fast as the host can ingest it,
// reporting achieved Mpps. The virtual-time scenarios answer "what does
// the paper's testbed see"; the replay mode answers "what does *this*
// implementation actually sustain".

// ReplayConfig describes one wall-clock replay run. The tenant ACL is
// SipSpDp, the pool has one vport per in_port up to the trace's largest,
// and the switch's idle-expiry sweep runs at trace tick transitions.
type ReplayConfig struct {
	// Workers is the PMD pool size (1 when <= 0).
	Workers int
}

// maxReplayPorts bounds the vport count a trace may ask for: in_port is
// a uint32 read from an untrusted file, and the pool allocates per-port
// counters for every vport up to the largest one.
const maxReplayPorts = 4096

// ReplayReport is the outcome of a replay run.
type ReplayReport struct {
	// Packets, WallMs and Mpps are the ingest numbers: records replayed,
	// host wall-clock spent, achieved millions of packets per second.
	Packets uint64
	WallMs  float64
	Mpps    float64
	// Masks is the megaflow mask count after the run — the TSE damage.
	Masks int
	// Totals is the pool's cumulative verdict/counter sum.
	Totals datapath.WorkerStats
}

// buildReplayPipeline assembles the switch, pool and replayer for one
// run over a trace whose largest in_port is maxPort.
func buildReplayPipeline(cfg ReplayConfig, maxPort uint64) (*vswitch.Switch, *datapath.Pool, *trace.Replayer, error) {
	if maxPort >= maxReplayPorts {
		return nil, nil, nil, fmt.Errorf("dataplane: trace in_port %d exceeds the %d-vport bound",
			maxPort, maxReplayPorts)
	}
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
	if err != nil {
		return nil, nil, nil, err
	}
	pool, err := datapath.New(datapath.Config{Switch: sw, Workers: cfg.Workers, Ports: int(maxPort) + 1})
	if err != nil {
		return nil, nil, nil, err
	}
	return sw, pool, &trace.Replayer{Pool: pool, TickSwitch: true}, nil
}

func replayReport(sw *vswitch.Switch, res trace.Result) *ReplayReport {
	return &ReplayReport{
		Packets: res.Packets,
		WallMs:  float64(res.WallNs) / 1e6,
		Mpps:    res.Mpps,
		Masks:   sw.MFC().MaskCount(),
		Totals:  res.Totals,
	}
}

// RunReplay replays rd through a freshly built pipeline.
func RunReplay(cfg ReplayConfig, rd *trace.Reader) (*ReplayReport, error) {
	sw, pool, rr, err := buildReplayPipeline(cfg, uint64(rd.MaxPort()))
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	return replayReport(sw, rr.Run(rd)), nil
}

// RunReplayRecords replays an in-memory record sequence through the same
// pipeline — the never-encoded side of the replay-vs-synthetic identity
// check the replay experiment reports.
func RunReplayRecords(cfg ReplayConfig, ticks []int64, ports []int, keys []bitvec.Vec) (*ReplayReport, error) {
	var maxPort uint64 // a negative port wraps past the bound
	for _, p := range ports {
		if uint64(p) > maxPort {
			maxPort = uint64(p)
		}
	}
	sw, pool, rr, err := buildReplayPipeline(cfg, maxPort)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	return replayReport(sw, rr.RunRecords(ticks, ports, keys)), nil
}

// ReplayPreset names a canned replay workload.
type ReplayPreset string

const (
	// ReplayVictimMix is the no-attack baseline: a 64-flow victim mix in
	// EMC-hit steady state — the wire-rate ceiling of the pipeline.
	ReplayVictimMix ReplayPreset = "victim-mix"
	// ReplayTSE merges the co-located SipSpDp flood into the same mix:
	// the achieved rate collapses with the mask count, the paper's
	// throughput figure re-measured as ingest rather than modelled.
	ReplayTSE ReplayPreset = "tse-attack"
)

// ReplayScenario synthesises the preset's workload in memory and
// returns a reader over it plus the synth options used (for reporting).
func ReplayScenario(preset ReplayPreset, seconds int) (*trace.Reader, trace.SynthOptions, error) {
	if seconds <= 0 {
		seconds = 2
	}
	opts := trace.SynthOptions{Seconds: seconds, Victims: 64, VictimPps: 2000, Ports: 4}
	if preset == ReplayTSE {
		tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
		atk, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 1})
		if err != nil {
			return nil, opts, err
		}
		opts.Attack, opts.AttackPps = atk, 20000
	} else if preset != ReplayVictimMix {
		return nil, opts, fmt.Errorf("dataplane: unknown replay preset %q", preset)
	}
	var buf trace.Buffer
	w, err := trace.NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		return nil, opts, err
	}
	if err := trace.Synthesize(w, opts); err != nil {
		return nil, opts, err
	}
	rd, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return nil, opts, err
	}
	return rd, opts, nil
}
