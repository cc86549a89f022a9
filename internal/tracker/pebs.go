package tracker

import (
	"repro/internal/mem"
	"repro/internal/pebs"
)

// pebsTracker is hardware event-based sampling (the reference tracker):
// one sample per Period accesses into the bounded ring. The caller hoists
// the skip countdown into its own loop — the between-samples cost is one
// register decrement there — so Observe is the firing half only: it
// accounts the whole period (the sample plus the Period-1 accesses skipped
// before it) and enqueues. The ring's ObserveSkipped folds in the unfired
// remainder, and Sync is free: hardware sampling has no periodic scan.
type pebsTracker struct {
	sampleRing
	period int
}

func (t *pebsTracker) Kind() string { return KindPEBS }
func (t *pebsTracker) Period() int  { return t.period }

func (t *pebsTracker) Observe(page mem.PageID, tier mem.Tier, now int64, write bool) {
	t.accesses += uint64(t.period)
	t.take(pebs.Sample{Page: page, Tier: tier, Time: now, Write: write})
}

func (t *pebsTracker) Sync(int64) float64 { return 0 }
