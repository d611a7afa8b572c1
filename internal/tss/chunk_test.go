package tss

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tse/internal/bitvec"
)

// flatProbes concatenates a snapshot's chunks: the scan order a lookup
// walks, one record per mask group.
func flatProbes(sn *snapshot) []scanProbe {
	var out []scanProbe
	for _, ch := range sn.chunks {
		out = append(out, ch.probes...)
	}
	return out
}

// allAttackMegaflows returns the 32*16*16 pairwise-disjoint SipSpDp attack
// megaflows, one per distinct mask, in a seeded random order.
func allAttackMegaflows(l *bitvec.Layout, seed int64) []*Entry {
	var es []*Entry
	for a := 0; a < 32; a++ {
		for b := 0; b < 16; b++ {
			for d := 0; d < 16; d++ {
				es = append(es, attackMegaflow(l, a, b, d))
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// checkChunks asserts the chunk invariants on the published snapshot and
// the writer-side table it was copied from, and that the concatenated scan
// order holds exactly the entries of want, in order (every test entry here
// is the sole entry of its mask, so it is inlined in its record).
func checkChunks(t *testing.T, c *Classifier, want []*Entry) {
	t.Helper()
	sn := c.snap.Load()
	if len(sn.chunks) != len(c.chunks) {
		t.Fatalf("snapshot has %d chunks, writer table %d", len(sn.chunks), len(c.chunks))
	}
	n := 0
	var prev *group
	for ci, ch := range sn.chunks {
		if c.chunks[ci] != ch || !ch.frozen {
			t.Fatalf("chunk %d: writer table differs from the snapshot or not frozen after publish", ci)
		}
		if len(ch.probes) == 0 || len(ch.probes) >= 2*chunkFill {
			t.Fatalf("chunk %d holds %d records, want 1..%d", ci, len(ch.probes), 2*chunkFill-1)
		}
		for _, p := range ch.probes {
			if c.opts.Order == OrderHash && prev != nil && !scansAfter(p.g, prev) {
				t.Fatalf("record %d (chunk %d) breaks hash order", n, ci)
			}
			if n >= len(want) || p.e0 != want[n] {
				t.Fatalf("record %d (chunk %d) differs from the flat reference", n, ci)
			}
			if p != buildProbe(p.g) {
				t.Fatalf("record %d (chunk %d) is stale for its group", n, ci)
			}
			prev = p.g
			n++
		}
	}
	if n != len(want) || sn.nMask != n || c.MaskCount() != n {
		t.Fatalf("chunks hold %d records, nMask %d, MaskCount %d, reference %d",
			n, sn.nMask, c.MaskCount(), len(want))
	}
}

// TestChunkedScanOrderMatchesFlat drives random Insert, Delete, DeleteWhere
// and ExpireIdle sequences under both scan orders, with enough masks to
// split chunks many times, drop emptied chunks and repack after a whole
// wipe. After every operation the concatenated chunk order must equal a
// flat reference (sorted by hash and mask bits, or in insertion order),
// and a single-entry Insert or Delete must share all but the at most two
// chunks it cloned or split with the snapshot before it.
func TestChunkedScanOrderMatchesFlat(t *testing.T) {
	l := bitvec.IPv4Tuple
	for _, order := range []MaskOrder{OrderHash, OrderInsertion} {
		rng := rand.New(rand.NewSource(int64(order) + 5))
		c := New(l, Options{Order: order})
		pool := allAttackMegaflows(l, int64(order)+9)
		var live []*Entry // flat reference, in scan order
		less := func(a, b *Entry) bool {
			ha, hb := a.Mask.Hash(), b.Mask.Hash()
			if ha != hb {
				return ha < hb
			}
			return a.Mask.Key() < b.Mask.Key()
		}
		// filter applies a DeleteWhere predicate to the reference and
		// returns the evicted entries to the pool.
		filter := func(pred func(*Entry) bool) int {
			kept := live[:0]
			n := 0
			for _, e := range live {
				if pred(e) {
					pool = append(pool, e)
					n++
				} else {
					kept = append(kept, e)
				}
			}
			live = kept
			return n
		}
		fresh := func(e *Entry) *Entry { return &Entry{Key: e.Key, Mask: e.Mask, Action: e.Action} }
		sharedSince := func(old *snapshot) int {
			seen := map[*probeChunk]bool{}
			for _, ch := range old.chunks {
				seen[ch] = true
			}
			n := 0
			for _, ch := range c.snap.Load().chunks {
				if !seen[ch] {
					n++
				}
			}
			return n
		}
		wiped, maxChunks := false, 0
		for op := 0; op < 7000; op++ {
			now := int64(op)
			before := c.snap.Load()
			single := false
			switch r := rng.Intn(1000); {
			case op == 4500:
				// Whole wipe, then regrow from empty.
				got := c.DeleteWhere(func(*Entry) bool { return true })
				if want := filter(func(*Entry) bool { return true }); got != want {
					t.Fatalf("wipe removed %d, want %d", got, want)
				}
				if len(c.chunks) != 0 {
					t.Fatalf("wipe left %d chunks", len(c.chunks))
				}
				wiped = true
			case r < 800 && len(pool) > 0:
				k := rng.Intn(len(pool))
				e := fresh(pool[k])
				pool[k] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				if err := c.Insert(e, now); err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				pos := len(live)
				if order == OrderHash {
					pos = sort.Search(len(live), func(i int) bool { return less(e, live[i]) })
				}
				live = append(live, nil)
				copy(live[pos+1:], live[pos:])
				live[pos] = e
				single = true
			case r < 960 && len(live) > 0:
				k := rng.Intn(len(live))
				e := live[k]
				if !c.Delete(e.Key, e.Mask) {
					t.Fatalf("op %d: delete of a live entry failed", op)
				}
				live = append(live[:k], live[k+1:]...)
				pool = append(pool, e)
				single = true
			case r < 963:
				salt := rng.Uint64()
				pred := func(e *Entry) bool { return (e.Key.Hash()^salt)%20 == 0 }
				want := filter(pred)
				if got := c.DeleteWhere(pred); got != want {
					t.Fatalf("op %d: DeleteWhere removed %d, want %d", op, got, want)
				}
			default:
				timeout := int64(3000 + rng.Intn(3000))
				want := filter(func(e *Entry) bool { return now-e.LastUsed >= timeout })
				if got := c.ExpireIdle(now, timeout); got != want {
					t.Fatalf("op %d: ExpireIdle removed %d, want %d", op, got, want)
				}
			}
			checkChunks(t, c, live)
			if single {
				if n := sharedSince(before); n > 2 {
					t.Fatalf("op %d: one-entry change published %d new chunks, want <= 2", op, n)
				}
			}
			if n := len(c.chunks); n > maxChunks {
				maxChunks = n
			}
		}
		if !wiped || maxChunks < 8 {
			t.Fatalf("order %d: wiped=%v, max chunks %d; the sequence did not split enough", order, wiped, maxChunks)
		}
	}
}

// TestRetiredSnapshotUnchangedAcrossSplits holds a loaded snapshot while a
// writer runs about 2000 inserts and deletes that clone and split every
// chunk the snapshot shares. A reader scans the held snapshot throughout
// (under -race a write to a shared chunk or group is reported), and at the
// end the held snapshot's records, group sizes and verdicts for a fixed
// header set must be what they were when it was taken.
func TestRetiredSnapshotUnchangedAcrossSplits(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	pool := allAttackMegaflows(l, 3)
	for _, e := range pool[:1500] {
		if err := c.Insert(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	held := c.snap.Load()
	rec := flatProbes(held)
	sizes := make([]int, len(rec))
	for i, p := range rec {
		sizes[i] = p.g.n
	}
	// Headers hitting held entries, and headers of entries installed later
	// (misses in the held snapshot).
	var hs []bitvec.Vec
	for i := 0; i < 3000; i += 15 {
		hs = append(hs, pool[i].Key)
	}
	hd := c.NewHandle()
	verdicts := func() []*Entry {
		out := make([]*Entry, len(hs))
		for i, h := range hs {
			out[i], _, _ = hd.lookupSnap(held, h, 0)
		}
		return out
	}
	want := verdicts()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for i, e := range verdicts() {
				if e != want[i] {
					t.Errorf("held snapshot verdict %d changed during writes", i)
					return
				}
			}
		}
	}()
	rng := rand.New(rand.NewSource(7))
	next := 1500
	live := append([]*Entry(nil), pool[:1500]...)
	for op := 0; op < 2000; op++ {
		if rng.Intn(4) < 3 && next < len(pool) {
			if err := c.Insert(pool[next], int64(op)); err != nil {
				t.Error(err)
				break
			}
			live = append(live, pool[next])
			next++
			continue
		}
		k := rng.Intn(len(live))
		c.Delete(live[k].Key, live[k].Mask)
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	close(done)
	wg.Wait()

	if got := len(c.snap.Load().chunks); got <= len(held.chunks) {
		t.Fatalf("writes left %d chunks from %d; nothing split", got, len(held.chunks))
	}
	now := flatProbes(held)
	if len(now) != len(rec) || held.nMask != len(rec) {
		t.Fatalf("held snapshot now has %d records (nMask %d), want %d", len(now), held.nMask, len(rec))
	}
	for i := range rec {
		if now[i] != rec[i] || now[i].g.n != sizes[i] {
			t.Fatalf("held snapshot record %d changed", i)
		}
	}
	for i, e := range verdicts() {
		if e != want[i] {
			t.Fatalf("held snapshot verdict %d changed", i)
		}
	}
}

// TestNewMaskInstallAllocBound pins the copy-on-write saving: at 8192
// masks with the overlap check on, a fresh-mask install allocates the
// group, the one chunk it clones and the chunk-pointer table — not a copy
// of every probe record (8192 x 40 bytes, about 330 KB). The mask-count
// readers on a multi-chunk snapshot allocate nothing.
func TestNewMaskInstallAllocBound(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	es := allAttackMegaflows(l, 1)
	for _, e := range es {
		if err := c.Insert(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.MaskCount() != 8192 || len(c.snap.Load().chunks) < 2 {
		t.Fatalf("setup: %d masks in %d chunks", c.MaskCount(), len(c.snap.Load().chunks))
	}
	const installs = 100
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < installs; i++ {
		e := es[i*81]
		c.Delete(e.Key, e.Mask)
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		if err := c.Insert(&Entry{Key: e.Key, Mask: e.Mask, Action: e.Action}, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - start
	}
	if avg := total / installs; avg >= 64<<10 {
		t.Errorf("fresh-mask install at 8192 masks allocates %d B on average, want < 64 KiB", avg)
	}
	last := es[len(es)-1].Mask
	if n := testing.AllocsPerRun(100, func() { _ = c.ProbePosition(last) }); n != 0 {
		t.Errorf("ProbePosition allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.MaskCount() }); n != 0 {
		t.Errorf("MaskCount allocates %.1f times per call", n)
	}
}

// TestIdleSweepDoesNotPublish checks that a sweep removing nothing leaves
// the published snapshot and the publish counter alone, while one that
// removes something publishes once.
func TestIdleSweepDoesNotPublish(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	for _, e := range allAttackMegaflows(l, 2)[:600] {
		if err := c.Insert(e, 10); err != nil {
			t.Fatal(err)
		}
	}
	sn, pubs := c.snap.Load(), c.Stats().Publishes
	if n := c.ExpireIdle(15, 10); n != 0 {
		t.Fatalf("ExpireIdle evicted %d fresh entries", n)
	}
	if c.DeleteWhere(func(*Entry) bool { return false }) != 0 {
		t.Fatal("DeleteWhere(false) removed entries")
	}
	if got := c.Stats().Publishes; got != pubs || c.snap.Load() != sn {
		t.Fatalf("idle sweeps published %d snapshots, want 0", got-pubs)
	}
	if n := c.ExpireIdle(20, 10); n != 600 {
		t.Fatalf("ExpireIdle evicted %d, want 600", n)
	}
	if got := c.Stats().Publishes - pubs; got != 1 {
		t.Fatalf("expiring sweep published %d snapshots, want 1", got)
	}
}
