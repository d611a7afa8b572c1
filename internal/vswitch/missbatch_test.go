// Equivalence tests for the batched miss-to-install step: HandleMissBatch
// must leave the switch in the same state — megaflows, counters, verdict
// actions — as the equivalent sequence of one-miss calls, while paying
// exactly one classifier snapshot publish per burst.
package vswitch_test

import (
	"strings"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func newMissSwitch(t *testing.T) *vswitch.Switch {
	t.Helper()
	sw, err := vswitch.New(vswitch.Config{
		Table:            flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
		DisableMicroflow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestHandleMissBatchMatchesSerial: a drained burst of distinct flow
// misses produces the same megaflows, counters, and verdict actions as K
// one-miss HandleMissBatch calls, with one snapshot publish for the whole
// burst where the one-miss sequence pays K.
func TestHandleMissBatchMatchesSerial(t *testing.T) {
	batched := newMissSwitch(t)
	serial := newMissSwitch(t)
	tr, err := core.CoLocated(batched.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	heads := tr.Headers[:96]
	ms := make([]vswitch.Miss, len(heads))
	for i, h := range heads {
		ms[i] = vswitch.Miss{Port: i % 3, Header: h}
	}

	before := batched.MFC().Stats().Publishes
	got := batched.HandleMissBatch(ms, 4)
	if pubs := batched.MFC().Stats().Publishes - before; pubs != 1 {
		t.Errorf("burst of %d misses published %d snapshots, want exactly 1", len(ms), pubs)
	}
	before = serial.MFC().Stats().Publishes
	for i, m := range ms {
		want := serial.HandleMissBatch([]vswitch.Miss{m}, 4)[0]
		if got[i].Action != want.Action || got[i].OutPort != want.OutPort ||
			got[i].Path != want.Path || got[i].Rule != want.Rule {
			t.Fatalf("miss %d: batch verdict %+v != serial %+v", i, got[i], want)
		}
	}
	if pubs := serial.MFC().Stats().Publishes - before; pubs != uint64(len(ms)) {
		t.Errorf("%d one-miss calls published %d snapshots, want %d", len(ms), pubs, len(ms))
	}
	if cb, cs := batched.Counters(), serial.Counters(); cb != cs {
		t.Errorf("counters diverge: batch %+v, serial %+v", cb, cs)
	}
	be, se := batched.MFC().Entries(), serial.MFC().Entries()
	if len(be) != len(se) {
		t.Fatalf("megaflow counts diverge: batch %d, serial %d", len(be), len(se))
	}
	for i := range be {
		if !be[i].Key.Equal(se[i].Key) || !be[i].Mask.Equal(se[i].Mask) ||
			be[i].Action != se[i].Action || be[i].Port != se[i].Port {
			t.Fatalf("megaflow %d diverges: batch %+v, serial %+v", i, be[i], se[i])
		}
	}
}

// TestHandleMissBatchSuppressedAndLimited: the quirk ledger applies per
// miss inside a burst, as it does serially.
func TestHandleMissBatchSuppressedAndLimited(t *testing.T) {
	sw := newMissSwitch(t)
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Install then monitor-delete one megaflow: its re-install inside a
	// burst must be suppressed by the revalidator quirk.
	sw.HandleMiss(tr.Headers[0], 0)
	if n := sw.DeleteMegaflows(func(*tss.Entry) bool { return true }); n != 1 {
		t.Fatalf("monitor deletion removed %d entries, want 1", n)
	}
	ms := make([]vswitch.Miss, 8)
	for i := range ms {
		ms[i] = vswitch.Miss{Header: tr.Headers[i]}
	}
	sw.HandleMissBatch(ms, 1)
	c := sw.Counters()
	if c.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the monitor-deleted flow)", c.Suppressed)
	}
}

// TestHandleMissOverlapTriage covers the install-overlap triage of
// HandleMissBatch, the reason vswitch keeps the classifier's Inv(2) check
// on. The cache is pre-seeded with an exact entry inside the region the
// generator will produce for a header. While a SwapTable's revalidation is
// pending the overlap is a benign stale-generation race: it counts one
// Conflict, installs nothing and still returns the slow-path verdict. With
// no swap pending the same overlap is a generator bug and must panic.
func TestHandleMissOverlapTriage(t *testing.T) {
	sw := newMissSwitch(t)
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Headers[0]
	gen := sw.Generator().Generate(h)
	if gen.Mask.Equal(bitvec.FullMask(sw.FlowTable().Layout())) {
		t.Fatalf("generated megaflow %v is exact; the seed would refresh it, not overlap it", gen.Mask)
	}
	seed := &tss.Entry{Key: h.Clone(), Mask: bitvec.FullMask(sw.FlowTable().Layout()), Action: flowtable.Allow}
	if err := sw.MFC().Insert(seed, 0); err != nil {
		t.Fatal(err)
	}

	if err := sw.SwapTable(flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})); err != nil {
		t.Fatal(err)
	}
	v := sw.HandleMiss(h, 1)
	if v.Path != vswitch.PathSlow || v.Action != gen.Action || v.Rule != gen.RuleName {
		t.Errorf("verdict %+v, want the slow path's %s via %s", v, gen.Action, gen.RuleName)
	}
	if c := sw.Counters(); c.Conflicts != 1 || c.Installs != 0 || c.Slow != 1 {
		t.Errorf("counters %+v, want Conflicts 1, Installs 0, Slow 1", c)
	}
	if es := sw.MFC().Entries(); len(es) != 1 || !es[0].Key.Equal(seed.Key) || !es[0].Mask.Equal(seed.Mask) {
		t.Fatalf("cache holds %d entries after the conflict, want only the seed", len(es))
	}

	sw.MarkRevalidated(sw.GenSeq())
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "generated megaflow overlaps cache") {
			t.Errorf("miss with no swap pending recovered %v, want the overlap panic", r)
		}
	}()
	sw.HandleMiss(h, 2)
}
