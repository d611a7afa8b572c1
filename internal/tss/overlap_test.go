package tss

import (
	"errors"
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// attackMegaflow builds the deny megaflow vswitch generates for a SipSpDp
// attack header (flowtable.UseCaseACL's default allow values: tp_dst 80,
// ip_src 10.0.0.1, tp_src 12345) that first disagrees with the rules at
// bit a of ip_src, bit b of tp_src and bit c of tp_dst, MSB-first. Each
// field's mask is its prefix through the differing bit, and the key is the
// rule's value on that prefix with the last bit flipped. Distinct (a, b, c)
// give pairwise disjoint entries under distinct masks: the TSE state.
func attackMegaflow(l *bitvec.Layout, a, b, c int) *Entry {
	key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
	for _, f := range []struct {
		name string
		val  uint64
		bit  int
	}{{"ip_src", 10<<24 | 1, a}, {"tp_src", 12345, b}, {"tp_dst", 80, c}} {
		fi, _ := l.FieldIndex(f.name)
		key.SetField(l, fi, f.val)
		key.FlipFieldBit(l, fi, f.bit)
		mask = mask.Or(bitvec.PrefixMask(l, fi, f.bit+1))
	}
	return &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}
}

// overlapCases tallies which findOverlapLocked paths a brute-force walk
// crossed, so the differential test can prove it exercised all of them.
type overlapCases struct {
	wordReject       int // one-entry group rejected on the inlined first mask word
	noIdx0Bits       int // one-entry group, candidate mask empty in word idx0
	multiSubset      int // multi-entry group whose mask is a subset of e's
	multiOther       int // multi-entry group whose mask is not
	foundSolo        int // overlap found in a one-entry group
	foundMultiSubset int // ... in a multi-entry group with a subset mask
	foundMultiOther  int // ... in any other multi-entry group
	foundNothing     int
}

// bruteOverlap returns the first entry, in snapshot scan order and slot
// order within a group, that overlaps e by plain bitvec.Overlap, tallying
// the groups it visits before stopping into cs.
func bruteOverlap(c *Classifier, e *Entry, cs *overlapCases) *Entry {
	for _, p := range flatProbes(c.snap.Load()) {
		switch {
		case p.e0 != nil && e.Mask[p.idx0] == 0:
			cs.noIdx0Bits++
		case p.e0 != nil && (e.Key[p.idx0]^p.kw0)&p.mw0&e.Mask[p.idx0] != 0:
			cs.wordReject++
		case p.e0 == nil && p.g.mask.SubsetOf(e.Mask):
			cs.multiSubset++
		case p.e0 == nil:
			cs.multiOther++
		}
		var found *Entry
		p.g.each(func(ex *Entry) bool {
			if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
				found = ex
			}
			return found == nil
		})
		if found != nil {
			switch {
			case p.e0 != nil:
				cs.foundSolo++
			case p.g.mask.SubsetOf(e.Mask):
				cs.foundMultiSubset++
			default:
				cs.foundMultiOther++
			}
			return found
		}
	}
	cs.foundNothing++
	return nil
}

// TestFindOverlapMatchesBruteForce is the differential check on the
// install-time Inv(2) walk: for every insert into a classifier holding
// SipSpDp attack megaflows, multi-entry groups and random entries,
// ErrOverlap.Existing is exactly the entry a brute-force first-in-scan-
// order bitvec.Overlap search returns, and the insert succeeds when that
// search finds nothing. Seeding inserts are checked too.
func TestFindOverlapMatchesBruteForce(t *testing.T) {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	proto, _ := l.FieldIndex("ip_proto")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")
	field := func(vals map[int]uint64, mask bitvec.Vec) *Entry {
		key := bitvec.NewVec(l)
		for f, v := range vals {
			key.SetField(l, f, v)
		}
		return &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Allow}
	}
	for _, order := range []MaskOrder{OrderHash, OrderInsertion} {
		c := New(l, Options{Order: order})
		var cs overlapCases
		insert := func(e *Entry) {
			t.Helper()
			if g := c.byMask[e.Mask.Key()]; g != nil && g.find(e.Key) != nil {
				return // an idempotent refresh, not an overlap check
			}
			want := bruteOverlap(c, e, &cs)
			err := c.Insert(e, 0)
			var ov *ErrOverlap
			switch {
			case want == nil && err != nil:
				t.Fatalf("order %d: insert %s = %v, brute force finds no overlap", order, e.Format(l), err)
			case want != nil && !errors.As(err, &ov):
				t.Fatalf("order %d: insert %s = %v, want overlap with %s", order, e.Format(l), err, want.Format(l))
			case want != nil && ov.Existing != want:
				t.Fatalf("order %d: insert %s overlaps %s, brute force's first is %s",
					order, e.Format(l), ov.Existing.Format(l), want.Format(l))
			}
		}

		// The attack plane with tp_dst differing in its high byte (c < 8),
		// leaving c >= 8 for fresh candidates.
		for a := 0; a < 32; a += 3 {
			for b := 0; b < 16; b += 2 {
				for cc := 0; cc < 8; cc++ {
					insert(attackMegaflow(l, a, b, cc))
				}
			}
		}
		// Multi-entry groups disjoint from the attack plane, whose tp_dst
		// differs from 80 in the high byte: allow-style (tp_dst 80, ip_dst
		// /8) and (tp_dst 81..83, ip_proto) megaflows.
		dst8 := bitvec.FieldMask(l, dp).Or(bitvec.PrefixMask(l, dip, 8))
		for _, d := range []uint64{10, 11, 12, 13} {
			insert(field(map[int]uint64{dp: 80, dip: d << 24}, dst8))
		}
		dpProto := bitvec.FieldMask(l, dp).Or(bitvec.FieldMask(l, proto))
		for _, d := range []uint64{81, 82, 83} {
			insert(field(map[int]uint64{dp: d, proto: 6}, dpProto))
		}
		// Random entries over a small mask pool, so some share a mask
		// (more multi-entry groups) and many collide with what is there.
		rng := rand.New(rand.NewSource(int64(order) + 7))
		var pool []bitvec.Vec
		for i := 0; i < 6; i++ {
			pool = append(pool, bitvec.PrefixMask(l, sip, 1+rng.Intn(32)).
				Or(bitvec.PrefixMask(l, sp, 1+rng.Intn(16))).
				Or(bitvec.PrefixMask(l, dp, 1+rng.Intn(16))))
		}
		for i := 0; i < 300; i++ {
			m := pool[rng.Intn(len(pool))]
			if i%3 == 0 {
				m = bitvec.FullMask(l)
			}
			insert(&Entry{Key: randomHeader(rng, l).And(m), Mask: m, Action: flowtable.Drop})
		}

		// Crafted candidates, each inserted into the seeded state.
		cands := []*Entry{
			// Fresh attack megaflows: most groups reject on word 0.
			attackMegaflow(l, 4, 5, 9), attackMegaflow(l, 31, 15, 15),
			// An attack-plane entry with a wider tp_dst: overlaps the plane.
			attackMegaflow(l, 3, 2, 1),
			// No mask bits in word 0 (tp_dst only): overlaps the c = 3
			// attack megaflows, or nothing at tp_dst 80.
			field(map[int]uint64{dp: 80 ^ 1<<12}, bitvec.FieldMask(l, dp)),
			field(map[int]uint64{dp: 80}, bitvec.FieldMask(l, dp)),
			field(map[int]uint64{sp: 12345}, bitvec.FieldMask(l, sp)),
			// Masks that are supersets of a multi-entry group's mask.
			field(map[int]uint64{dp: 80, dip: 11 << 24, sip: 7}, dst8.Or(bitvec.FieldMask(l, sip))),
			field(map[int]uint64{dp: 80, dip: 99 << 24, sip: 7}, dst8.Or(bitvec.FieldMask(l, sip))),
			field(map[int]uint64{dp: 82, proto: 6, sp: 1}, dpProto.Or(bitvec.FieldMask(l, sp))),
			// Not a superset of either group's mask, yet overlapping one.
			field(map[int]uint64{dip: 12 << 24}, bitvec.PrefixMask(l, dip, 8)),
			field(map[int]uint64{proto: 6}, bitvec.FieldMask(l, proto)),
		}
		for _, e := range cands {
			insert(e)
		}
		t.Logf("order %d: %d masks, %d entries, paths %+v", order, c.MaskCount(), c.EntryCount(), cs)
		for name, n := range map[string]int{
			"first-word reject": cs.wordReject, "no idx0 mask bits": cs.noIdx0Bits,
			"multi-entry subset mask": cs.multiSubset, "multi-entry other mask": cs.multiOther,
			"found in one-entry group": cs.foundSolo, "found in multi-entry subset group": cs.foundMultiSubset,
			"found in multi-entry other group": cs.foundMultiOther,
			"no overlap":                       cs.foundNothing,
		} {
			if n == 0 {
				t.Errorf("order %d: no insert exercised %s", order, name)
			}
		}
	}
}
