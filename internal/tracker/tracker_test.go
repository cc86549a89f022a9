package tracker

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/pebs"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", KindPEBS, true},
		{"pebs", KindPEBS, true},
		{"idlepage", KindIdlepage, true},
		{"softdirty", KindSoftDirty, true},
		{"damon", "", false},
		{"PEBS", "", false},
	}
	for _, c := range cases {
		got, err := Normalize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Normalize(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Normalize(%q) accepted; want error", c.in)
		}
	}
	wantMsg := `tracker: unknown kind "damon" (known: idlepage, pebs, softdirty)`
	if _, err := Normalize("damon"); err == nil || err.Error() != wantMsg {
		t.Errorf("Normalize error = %v; want %s", err, wantMsg)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Kind: "nope"},
		{Kind: KindPEBS, Period: 0, BufferSize: 1},
		{Kind: KindIdlepage, ScanNs: 0, BufferSize: 8},
		{Kind: KindSoftDirty, ScanNs: 100, BufferSize: 0},
		{Kind: KindIdlepage, ScanNs: 100, BufferSize: 8, ScanCostPerPageNs: -1},
	}
	// The ring is shared, so every kind rejects an empty one.
	for _, kind := range Kinds() {
		c := good
		c.Kind = kind
		c.BufferSize = 0
		bad = append(bad, c)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated; want error", i, c)
		}
		if _, err := New(c, 64, nil); err == nil {
			t.Errorf("case %d: New(%+v) succeeded; want error", i, c)
		}
	}
}

// TestPEBSAdapter checks the PEBS tracker's hoisted-countdown
// accounting: each Observe is one fired sample and accounts a full
// period, ObserveSkipped folds the remainder, and drops are counted.
func TestPEBSAdapter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 5
	cfg.BufferSize = 4
	trk, err := New(cfg, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trk.Kind() != KindPEBS || trk.Period() != 5 {
		t.Fatalf("Kind/Period = %s/%d; want pebs/5", trk.Kind(), trk.Period())
	}
	if cost := trk.Sync(1e12); cost != 0 {
		t.Fatalf("pebs Sync cost = %g; want 0", cost)
	}
	for i := 0; i < 6; i++ {
		trk.Observe(mem.PageID(i), mem.Fast, int64(i), false)
	}
	trk.ObserveSkipped(3)
	st := trk.Stats()
	// 6 fires × period 5 + 3 skipped = 33 accesses; ring of 4 dropped 2.
	if st.Accesses != 33 || st.Sampled != 6 || st.Dropped != 2 {
		t.Fatalf("stats = %+v; want Accesses 33, Sampled 6, Dropped 2", st)
	}
	got := trk.Drain(nil, 0)
	if len(got) != 4 || trk.Pending() != 0 {
		t.Fatalf("drained %d pending %d; want 4, 0", len(got), trk.Pending())
	}
}

func TestIdlepageScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindIdlepage
	cfg.ScanNs = 1000
	cfg.BufferSize = 16
	cfg.ScanCostPerPageNs = 2
	trk, err := New(cfg, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trk.Period() != 1 {
		t.Fatalf("Period = %d; want 1", trk.Period())
	}
	// Touch pages across word boundaries; repeats must not duplicate.
	trk.Observe(5, mem.Fast, 10, false)
	trk.Observe(5, mem.Fast, 11, true)
	trk.Observe(70, mem.Slow, 12, false)
	trk.Observe(130, mem.Fast, 13, false)
	// The page moved tiers between accesses: the scan reports the last.
	trk.Observe(130, mem.Slow, 14, false)

	if cost := trk.Sync(999); cost != 0 || trk.Pending() != 0 {
		t.Fatalf("scan fired before deadline: cost %g pending %d", cost, trk.Pending())
	}
	cost := trk.Sync(1000)
	if want := float64(200) * 2; cost != want {
		t.Fatalf("scan cost = %g; want %g", cost, want)
	}
	got := trk.Drain(nil, 0)
	want := []pebs.Sample{
		{Page: 5, Tier: mem.Fast, Time: 1000},
		{Page: 70, Tier: mem.Slow, Time: 1000},
		{Page: 130, Tier: mem.Slow, Time: 1000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan samples = %+v; want %+v", got, want)
	}
	// Bits cleared: an idle interval scans to nothing.
	if cost := trk.Sync(2000); cost == 0 {
		t.Fatal("second scan charged no cost")
	}
	if trk.Pending() != 0 {
		t.Fatalf("idle scan emitted %d samples", trk.Pending())
	}
	st := trk.Stats()
	if st.Accesses != 5 || st.Sampled != 3 || st.Drained != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestScanCatchUp: when virtual time leaps several scan periods, one scan
// runs (cumulative bits make immediate re-scans vacuous) and the schedule
// realigns past now.
func TestScanCatchUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindIdlepage
	cfg.ScanNs = 100
	cfg.BufferSize = 16
	trk, _ := New(cfg, 64, nil)
	trk.Observe(1, mem.Fast, 0, false)
	if cost := trk.Sync(1050); cost == 0 {
		t.Fatal("leap scan did not fire")
	}
	if n := trk.Pending(); n != 1 {
		t.Fatalf("leap scan emitted %d samples; want 1", n)
	}
	// Next deadline is past now: an immediate re-sync is a no-op.
	if cost := trk.Sync(1050); cost != 0 {
		t.Fatal("re-sync at same time fired again")
	}
	trk.Observe(2, mem.Fast, 1060, false)
	if cost := trk.Sync(1099); cost != 0 {
		t.Fatal("scan fired before the realigned deadline")
	}
	if cost := trk.Sync(1100); cost == 0 {
		t.Fatal("realigned scan did not fire")
	}
}

func TestSoftDirtyWriteOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindSoftDirty
	cfg.ScanNs = 1000
	cfg.BufferSize = 16
	trk, err := New(cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	trk.Observe(3, mem.Slow, 1, false) // read: invisible
	trk.Observe(7, mem.Fast, 2, true)  // write: tracked
	trk.Sync(1000)
	got := trk.Drain(nil, 0)
	want := []pebs.Sample{{Page: 7, Tier: mem.Fast, Time: 1000, Write: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %+v; want %+v", got, want)
	}
	st := trk.Stats()
	if st.Accesses != 2 || st.Sampled != 1 {
		t.Fatalf("stats = %+v; want Accesses 2, Sampled 1", st)
	}
}

// TestRingOverflowAndWrap exercises drop counting and the wrapped drain.
func TestRingOverflowAndWrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindIdlepage
	cfg.ScanNs = 10
	cfg.BufferSize = 4
	trk, _ := New(cfg, 64, nil)
	for p := 0; p < 6; p++ {
		trk.Observe(mem.PageID(p), mem.Fast, 0, false)
	}
	trk.Sync(10) // 6 marked pages into a 4-slot ring: 2 drop
	if st := trk.Stats(); st.Sampled != 6 || st.Dropped != 2 {
		t.Fatalf("stats = %+v; want Sampled 6, Dropped 2", st)
	}
	if got := trk.Drain(nil, 2); len(got) != 2 {
		t.Fatalf("partial drain returned %d", len(got))
	}
	// Refill so the ring wraps, then drain across the seam.
	trk.Observe(40, mem.Fast, 15, false)
	trk.Observe(41, mem.Fast, 16, false)
	trk.Sync(20)
	got := trk.Drain(nil, 0)
	wantPages := []mem.PageID{2, 3, 40, 41}
	if len(got) != len(wantPages) {
		t.Fatalf("drained %d samples; want %d", len(got), len(wantPages))
	}
	for i, s := range got {
		if s.Page != wantPages[i] {
			t.Fatalf("sample %d page = %d; want %d", i, s.Page, wantPages[i])
		}
	}
}
