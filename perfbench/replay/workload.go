package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/trace"
)

// workload is one seeded traffic mix. Every workload runs against the
// SipSpDp ACL over 4 vports: benign flows arrive round-robin on vports
// 1..3, the co-located flood (when enabled) on vport 0.
type workload struct {
	name string
	// victims distinct benign TCP flows to 192.168.0.2:80, each sending
	// victimPps packets per virtual second, sent round-robin.
	victims, victimPps int
	// seconds is the trace length in virtual seconds (ticks).
	seconds int
	// attackPps is the co-located SipSpDp flood rate on vport 0; 0 means
	// no attack. maxAttack truncates the flood's header cycle (0 keeps
	// the full core.CoLocated trace); only the self-test sets it.
	attackPps, maxAttack int
	// async replays through a pool with one upcall handler goroutine and
	// unbounded queues instead of the inline slow path.
	async bool
}

// workloads are the benchmark's mixes, in BENCHMARK.json order.
var workloads = []workload{
	// EMC-hit steady state after the first 64 packets: the wire-rate
	// ceiling, where decode, pool bookkeeping and EMC lookup do the work.
	{name: "victim-mix", victims: 64, victimPps: 4096, seconds: 4},
	// 16x the EMC's 256 entries, round-robin: every packet pays an EMC
	// miss, an insert with eviction and a one-probe megaflow hit.
	{name: "flow-churn", victims: 4096, victimPps: 64, seconds: 2},
	// The victim mix plus the flood: |M| climbs from 1 to 8209, slow-path
	// installs dominate, then the mask scan does.
	{name: "tse-attack", victims: 64, victimPps: 2000, seconds: 2, attackPps: 20000},
	// The same trace through upcall admission, dedup and a handler that
	// installs in bursts with one snapshot publish per burst.
	{name: "tse-attack-async", victims: 64, victimPps: 2000, seconds: 2, attackPps: 20000, async: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchACL is the tenant ACL every workload runs against.
func benchACL() *flowtable.Table {
	return flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
}

// input is one synthesised trace file plus the verdict oracle.
type input struct {
	path string
	// expected[i] is record i's action by flowtable.Table.Lookup (no
	// matching rule means drop).
	expected []flowtable.Action
	// checksum is the SHA-256 of the trace file, so runs on two commits
	// can be shown to replay identical bytes.
	checksum string
}

// victimHeaders draws n distinct benign flows from rng: random sources in
// 10.0.0.0/8 with random ephemeral ports, all to 192.168.0.2:80, so every
// one of them matches rule #1 and shares its single megaflow mask.
func victimHeaders(rng *rand.Rand, n int) []bitvec.Vec {
	l := bitvec.IPv4Tuple
	field := func(name string) int {
		f, ok := l.FieldIndex(name)
		if !ok {
			panic("replay: layout lacks field " + name)
		}
		return f
	}
	sip, dip, proto := field("ip_src"), field("ip_dst"), field("ip_proto")
	sp, dp := field("tp_src"), field("tp_dst")
	seen := make(map[[2]uint64]bool, n)
	hs := make([]bitvec.Vec, 0, n)
	for len(hs) < n {
		src := uint64(0x0a000000 | rng.Uint32()&0xffffff)
		port := uint64(1024 + rng.Intn(65536-1024))
		if seen[[2]uint64{src, port}] {
			continue
		}
		seen[[2]uint64{src, port}] = true
		h := bitvec.NewVec(l)
		h.SetField(l, sip, src)
		h.SetField(l, dip, 0xc0a80002)
		h.SetField(l, proto, 6)
		h.SetField(l, sp, port)
		h.SetField(l, dp, 80)
		hs = append(hs, h)
	}
	return hs
}

// synthesize renders workload w for seed into a trace file at path and
// computes each record's expected action. Within a tick the victim and
// flood streams are merged by ideal arrival time, each evenly spaced over
// the second, as trace.SynthRecords does.
func synthesize(w workload, seed int64, path string) (*input, error) {
	tbl := benchACL()
	victims := victimHeaders(rand.New(rand.NewSource(seed)), w.victims)
	var attack []bitvec.Vec
	if w.attackPps > 0 {
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: seed})
		if err != nil {
			return nil, err
		}
		attack = tr.Headers
		if w.maxAttack > 0 && len(attack) > w.maxAttack {
			attack = attack[:w.maxAttack]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, bitvec.IPv4Tuple)
	if err != nil {
		return nil, err
	}
	aPer, vPer := w.attackPps, w.victims*w.victimPps
	in := &input{path: path, expected: make([]flowtable.Action, 0, w.seconds*(aPer+vPer))}
	emit := func(tick int64, port int, h bitvec.Vec) error {
		in.expected = append(in.expected, expectedAction(tbl, h))
		return tw.WriteRecord(tick, port, h)
	}
	ai := 0
	for t := 0; t < w.seconds; t++ {
		na, nv := 0, 0
		for na < aPer || nv < vPer {
			if nv >= vPer || (na < aPer && (2*na+1)*vPer <= (2*nv+1)*aPer) {
				if err := emit(int64(t), 0, attack[ai]); err != nil {
					return nil, err
				}
				ai = (ai + 1) % len(attack)
				na++
				continue
			}
			i := nv % w.victims
			if err := emit(int64(t), 1+i%3, victims[i]); err != nil {
				return nil, err
			}
			nv++
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	sum := sha256.New()
	if _, err := io.Copy(sum, f); err != nil {
		return nil, err
	}
	in.checksum = hex.EncodeToString(sum.Sum(nil))[:16]
	return in, f.Close()
}

// expectedAction is the oracle's verdict for header h.
func expectedAction(tbl *flowtable.Table, h bitvec.Vec) flowtable.Action {
	if r := tbl.Lookup(h); r != nil {
		return r.Action
	}
	return flowtable.Drop
}
