package tracker

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// BenchmarkPebsObserve measures the PEBS tracker's per-access cost in the
// simulator's calling pattern: the skip countdown is hoisted into the
// loop (one decrement between samples), Observe fires every Period-th
// access, and a consumer drains so the ring never overflows.
func BenchmarkPebsObserve(b *testing.B) {
	trk, err := New(Config{Kind: KindPEBS, Period: 13, BufferSize: 1 << 12}, 1<<16, nil)
	if err != nil {
		b.Fatal(err)
	}
	period := trk.Period()
	left := period
	var batch []pebs.Sample
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left--; left <= 0 {
			trk.Observe(mem.PageID(i&0xffff), mem.Slow, int64(i), i&7 == 0)
			left = period
			if trk.Pending() >= 256 {
				batch = trk.Drain(batch[:0], 0)
			}
		}
	}
	trk.ObserveSkipped(period - left)
}

// BenchmarkScanObserve measures the scanning trackers' per-access cost:
// two bitmap word updates, the price every op pays when the simulator
// runs under idlepage or soft-dirty tracking (period 1 — no countdown
// skip shields it). Its PEBS twin is BenchmarkPebsObserve above; the two
// numbers bracket the tracker choice's hot-loop impact.
func BenchmarkScanObserve(b *testing.B) {
	const pages = 1 << 14
	trk, err := New(Config{Kind: KindIdlepage, ScanNs: 1 << 62, BufferSize: 1 << 10, ScanCostPerPageNs: 0.5}, pages, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trk.Observe(mem.PageID(i)&(pages-1), mem.Tier(i&1), int64(i), i&7 == 0)
	}
}

// BenchmarkIdlepageScanDrain measures one full scan cycle per iteration:
// mark a spread of pages, walk and clear the whole bitmap emitting
// samples, and drain them — the periodic cost the simulator charges at
// each scan boundary. ns/op is per-scan over a 16 Ki-page footprint with
// 1/8 of pages touched.
func BenchmarkIdlepageScanDrain(b *testing.B) {
	const pages = 1 << 14
	trk, err := New(Config{Kind: KindIdlepage, ScanNs: 1, BufferSize: 1 << 14, ScanCostPerPageNs: 0.5}, pages, nil)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]pebs.Sample, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pages; p += 8 {
			trk.Observe(mem.PageID(p), mem.Slow, int64(i), false)
		}
		if trk.Sync(int64(i)+1) == 0 {
			b.Fatal("scan did not fire")
		}
		batch = trk.Drain(batch[:0], 0)
		if len(batch) != pages/8 {
			b.Fatalf("drained %d samples, want %d", len(batch), pages/8)
		}
	}
}
