// Equivalence tests for the batched miss-to-install step: HandleMissBatch
// must leave the switch in the same state — megaflows, counters, verdict
// actions — as the equivalent sequence of one-miss calls, while paying
// exactly one classifier snapshot publish per burst.
package vswitch_test

import (
	"testing"

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
