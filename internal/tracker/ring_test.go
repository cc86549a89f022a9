package tracker

// Table tests of the shared sample ring: every row runs once per tracker
// kind, because all three kinds deliver samples through the same ring and
// must keep its contract — bounded capacity, drop-and-count on overflow
// with the oldest samples kept, FIFO drains across the wrap seam, and
// exact access accounting under the simulator's hoisted countdown.

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// ringPages sizes the scanning kinds' bitmaps for the tests below.
const ringPages = 1 << 16

// newKind builds a tracker of the given kind with a ring of size entries.
// PEBS samples every period accesses; the scanning kinds scan at every
// Sync past the previous one (ScanNs 1), so feed turns accesses into
// samples for every kind.
func newKind(t testing.TB, kind string, period, size int) Tracker {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Kind = kind
	cfg.Period = period
	cfg.BufferSize = size
	cfg.ScanNs = 1
	trk, err := New(cfg, ringPages, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trk
}

// feed delivers n slow-tier writes to pages first, first+1, ... the way
// sim.Run does — Observe on every Period()-th access, the unfired
// remainder folded back through ObserveSkipped — then syncs at now
// (which must exceed the previous feed's). Each kind thus emits
// n/Period() samples, the k-th for page first+(k+1)*Period()-1.
func feed(trk Tracker, first mem.PageID, n int, now int64) {
	period := trk.Period()
	left := period
	for i := 0; i < n; i++ {
		if left--; left <= 0 {
			trk.Observe(first+mem.PageID(i), mem.Slow, now, true)
			left = period
		}
	}
	trk.ObserveSkipped(period - left)
	trk.Sync(now)
}

// samplePage is the page of the k-th sample of a feed starting at first.
func samplePage(trk Tracker, first mem.PageID, k int) mem.PageID {
	return first + mem.PageID((k+1)*trk.Period()-1)
}

func TestSamplingPeriod(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 10, 1000)
		feed(trk, 0, 105, 1)
		want := 105 / trk.Period()
		if trk.Pending() != want {
			t.Errorf("%s: 105 accesses → %d samples, want %d", kind, trk.Pending(), want)
		}
		st := trk.Stats()
		if st.Accesses != 105 || st.Sampled != uint64(want) || st.Dropped != 0 {
			t.Errorf("%s: stats = %+v", kind, st)
		}
	}
}

func TestSampleContents(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 2, 8)
		feed(trk, 1, trk.Period(), 200)
		got := trk.Drain(nil, 0)
		if len(got) != 1 {
			t.Fatalf("%s: drained %d, want 1", kind, len(got))
		}
		// Idle-page bits carry no read/write information.
		want := pebs.Sample{Page: samplePage(trk, 1, 0), Tier: mem.Slow, Time: 200, Write: kind != KindIdlepage}
		if got[0] != want {
			t.Errorf("%s: sample = %+v, want %+v", kind, got[0], want)
		}
	}
}

func TestDropOnOverflow(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 1, 4)
		feed(trk, 0, 10, 1)
		if trk.Pending() != 4 {
			t.Errorf("%s: Pending = %d, want 4 (ring capacity)", kind, trk.Pending())
		}
		if st := trk.Stats(); st.Sampled != 10 || st.Dropped != 6 {
			t.Errorf("%s: stats = %+v, want Sampled 10, Dropped 6", kind, st)
		}
		// The oldest samples are kept (drops happen at the producer).
		got := trk.Drain(nil, 0)
		if got[0].Page != 0 || got[3].Page != 3 {
			t.Errorf("%s: kept %v, want the first four pages", kind, got)
		}
	}
}

func TestDrainMax(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 1, 100)
		feed(trk, 0, 50, 1)
		got := trk.Drain(nil, 20)
		if len(got) != 20 || trk.Pending() != 30 {
			t.Errorf("%s: Drain(20): got %d pending %d", kind, len(got), trk.Pending())
		}
		got = trk.Drain(got[:0], 0)
		if len(got) != 30 || trk.Pending() != 0 || got[0].Page != 20 {
			t.Errorf("%s: Drain(all): got %d (first page %d) pending %d", kind, len(got), got[0].Page, trk.Pending())
		}
		if d := trk.Stats().Drained; d != 50 {
			t.Errorf("%s: Drained = %d, want 50", kind, d)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 1, 4)
		// Fill, drain, fill again to force head/tail wrap.
		for round := 0; round < 5; round++ {
			feed(trk, mem.PageID(round*10), 3, int64(round+1))
			got := trk.Drain(nil, 0)
			if len(got) != 3 {
				t.Fatalf("%s round %d: drained %d, want 3", kind, round, len(got))
			}
			for i, smp := range got {
				if smp.Page != mem.PageID(round*10+i) {
					t.Fatalf("%s round %d: sample %d = %+v (FIFO violated)", kind, round, i, smp)
				}
			}
		}
	}
}

// Property: for any access count n and period p, a ring large enough
// holds exactly n/Period() samples, in access order, and the access
// count is exact whatever countdown remainder is left over.
func TestSampleCountProperty(t *testing.T) {
	for _, kind := range Kinds() {
		f := func(n uint16, p uint8) bool {
			trk := newKind(t, kind, int(p)%50+1, ringPages)
			feed(trk, 0, int(n), 1)
			got := trk.Drain(nil, 0)
			if len(got) != int(n)/trk.Period() || trk.Stats().Accesses != uint64(n) {
				return false
			}
			for k, smp := range got {
				if smp.Page != samplePage(trk, 0, k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestCountdownOverflowDrop: with the ring full every further sample is
// dropped and counted, a drop still accounts its whole period, and the
// access count stays exact through overflow, drain and a second feed
// that leaves a countdown remainder.
func TestCountdownOverflowDrop(t *testing.T) {
	for _, kind := range Kinds() {
		trk := newKind(t, kind, 3, 4)
		const total = 31 // PEBS: 10 samples (4 buffered + 6 dropped), 1 access left over
		feed(trk, 0, total, 1)
		samples := total / trk.Period()
		st := trk.Stats()
		if st.Accesses != total || st.Sampled != uint64(samples) || st.Dropped != uint64(samples-4) {
			t.Errorf("%s: stats = %+v, want Accesses %d, Sampled %d, Dropped %d",
				kind, st, total, samples, samples-4)
		}
		// The buffered samples are the first four; drops never overwrite.
		got := trk.Drain(nil, 0)
		if len(got) != 4 {
			t.Fatalf("%s: drained %d, want 4", kind, len(got))
		}
		for k, smp := range got {
			if want := samplePage(trk, 0, k); smp.Page != want {
				t.Errorf("%s: sample %d page %d, want %d", kind, k, smp.Page, want)
			}
		}
		// A drained ring captures again.
		feed(trk, 1000, 4, 2)
		if want := 4 / trk.Period(); trk.Pending() != want {
			t.Errorf("%s: Pending = %d after refill, want %d", kind, trk.Pending(), want)
		}
		if st := trk.Stats(); st.Accesses != total+4 {
			t.Errorf("%s: Accesses = %d, want %d", kind, st.Accesses, total+4)
		}
	}
}

// TestCheckoutRingScrub pins the pooled-buffer guarantee: recycled rings
// are cleared before a tracker adopts them, so stale samples from a
// previous sweep cell can never be observed, even through a bug that
// reads an unwritten slot.
func TestCheckoutRingScrub(t *testing.T) {
	staleRing := func(n int) []pebs.Sample {
		r := make([]pebs.Sample, n)
		for i := range r {
			r[i] = pebs.Sample{Page: 999, Tier: mem.Slow, Time: 42, Write: true}
		}
		return r
	}
	stale := staleRing(8)
	r := checkoutRing(stale, 4)
	if len(r) != 4 {
		t.Fatalf("len = %d; want 4", len(r))
	}
	for i, s := range r {
		if s != (pebs.Sample{}) {
			t.Fatalf("slot %d not scrubbed: %+v", i, s)
		}
	}
	if small := checkoutRing(stale[:2], 4); len(small) != 4 {
		t.Fatalf("short recycled buffer not replaced")
	}

	// Every kind adopts a recycled ring through the same scrub.
	for _, kind := range Kinds() {
		cfg := DefaultConfig()
		cfg.Kind = kind
		cfg.BufferSize = 4
		cfg.ScanNs = 1
		stale := staleRing(8)
		trk, err := New(cfg, 64, stale)
		if err != nil {
			t.Fatal(err)
		}
		ring := trk.Ring()
		if len(ring) != 4 || &ring[0] != &stale[0] {
			t.Fatalf("%s: recycled ring not reused (len %d)", kind, len(ring))
		}
		for i, s := range ring {
			if s != (pebs.Sample{}) {
				t.Fatalf("%s: slot %d not scrubbed: %+v", kind, i, s)
			}
		}
		feed(trk, 0, 2*trk.Period(), 1)
		for _, s := range trk.Drain(nil, 0) {
			if s.Page == 999 {
				t.Fatalf("%s: stale sample surfaced: %+v", kind, s)
			}
		}
	}
}
