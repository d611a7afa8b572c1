package tss

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// BenchmarkInsertAtManyMasks measures the writer-side cost of one megaflow
// install into an attack-inflated classifier: the copy-on-write bill the
// snapshot design charges the slow path to keep the read path lock-free,
// one group clone, one probe-chunk clone and the chunk-table publish.
//
// Installs are idempotent refreshes round-robin over the 4096 seeded
// megaflows — the one-entry-per-mask attack shape — so the classifier
// stays in steady state for any b.N: each op pays one tiny-group clone
// plus the clone and publish, which is the quantity under test. A refresh
// returns before the overlap check (which this bench disables anyway),
// but it still locates the group's record with a walk of the scan order,
// so this is not the install vswitch performs; see
// BenchmarkInsertNewMaskAtManyMasks for that.
func BenchmarkInsertAtManyMasks(b *testing.B) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 4096)
	seed := c.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := seed[i%len(seed)]
		c.Insert(&Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}, 0)
	}
}

// BenchmarkInsertBatchAtManyMasks is the amortised counterpart: one
// 32-entry InsertBatch per op — the handler-drain burst shape — so the
// publish is paid once per 32 installs instead of per install, and a chunk
// the burst lands in twice is cloned once.
// Compare ns/op/32 against BenchmarkInsertAtManyMasks to read the
// per-install win (the bench JSON suite records both). Like that bench it
// only refreshes existing entries with the overlap check off.
func BenchmarkInsertBatchAtManyMasks(b *testing.B) {
	const burst = 32
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 4096)
	seed := c.Entries()
	es := make([]*Entry, burst)
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		for j := range es {
			e := seed[seq%len(seed)]
			seq++
			es[j] = &Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}
		}
		c.InsertBatch(es, 0)
	}
}

// BenchmarkInsertNewMaskAtManyMasks measures the install vswitch performs
// in the TSE attack regime, with the overlap check on as vswitch runs it:
// each op inserts one fresh single-entry mask (a SipSpDp attack megaflow)
// into a classifier holding 4096 of them, so it pays the Inv(2) walk over
// every group, the scan-order placement, one chunk clone and the publish.
// The delete that restores the 4096-mask state runs outside the timer.
func BenchmarkInsertNewMaskAtManyMasks(b *testing.B) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	var fresh []*Entry
	for a := 0; a < 32; a++ {
		for sp := 0; sp < 16; sp++ {
			for dp := 0; dp < 16; dp++ {
				e := attackMegaflow(l, a, sp, dp)
				if dp%2 == 1 {
					fresh = append(fresh, e)
				} else if err := c.Insert(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := fresh[i%len(fresh)]
		if err := c.Insert(&Entry{Key: e.Key, Mask: e.Mask, Action: e.Action}, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Delete(e.Key, e.Mask)
		b.StartTimer()
	}
}
