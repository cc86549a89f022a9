package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/tier"
	"repro/internal/trace"
)

// poisonedBuffers returns a runBuffers whose recency array is longer than
// a run over pages pages needs and holds a timestamp far in the future,
// and whose ring is full of write samples of the run's last page.
func poisonedBuffers(pages int) *runBuffers {
	b := &runBuffers{
		ring:    make([]pebs.Sample, 1<<16),
		recency: make([]int64, 2*pages),
	}
	for i := range b.recency {
		b.recency[i] = math.MaxInt64 / 2
	}
	for i := range b.ring {
		b.ring[i] = pebs.Sample{Page: mem.PageID(pages - 1), Tier: mem.Slow, Time: math.MaxInt64 / 2, Write: true}
	}
	return b
}

// recencyProbe is TPP plus a read any policy may make: at every tick it
// reads Env.LastAccess for every page, touched yet or not, and counts
// timestamps from the future. The count is added to MetadataBytes, so a
// recency array that was not cleared shows in the Result.
type recencyProbe struct {
	*baselines.TPP
	env    tier.Env
	pages  int
	future int64
}

func (r *recencyProbe) Attach(env tier.Env) {
	r.env = env
	r.TPP.Attach(env)
}

func (r *recencyProbe) Tick() {
	r.TPP.Tick()
	for p := 0; p < r.pages; p++ {
		if r.env.LastAccess(mem.PageID(p)) > r.env.Now() {
			r.future++
		}
	}
}

func (r *recencyProbe) MetadataBytes() int64 { return r.TPP.MetadataBytes() + r.future }

// seedPool empties bufPool, then puts b in it, so the next Get on this P
// returns b unless the goroutine migrates or the race detector drops it.
func seedPool(b *runBuffers) {
	for {
		if got := bufPool.Get().(*runBuffers); got.ring == nil && got.recency == nil {
			break // the pool is empty: New made this one
		}
	}
	bufPool.Put(b)
}

// TestPoisonedBufferPoolMatchesFreshRun: Run recycles its sample ring and
// recency array through bufPool, so a run must never see what a previous
// run left in them. The pool is seeded with poisoned buffers before each
// run. TPP reads Env.LastAccess, so a stale timestamp could keep a page
// from looking cold; it runs under recencyProbe, which also reads the
// timestamps of pages the run has not touched yet. HybridTier drains the ring,
// so a stale sample would reach OnSamples. Each run's Result JSON must equal the same run's
// without poisoning. sync.Pool may or may not hand the poisoned struct
// back (under -race it drops entries at random); equality must hold
// either way, so the test cannot flake, and how often the poison was
// adopted is only logged.
func TestPoisonedBufferPoolMatchesFreshRun(t *testing.T) {
	const pages = 4096
	policies := map[string]func() tier.Policy{
		"TPP": func() tier.Policy {
			return &recencyProbe{TPP: baselines.NewTPP(baselines.DefaultTPPConfig(pages)), pages: pages}
		},
		"HybridTier": func() tier.Policy { return hybridFor(pages / 17) },
	}
	for name, mk := range policies {
		run := func() []byte {
			t.Helper()
			w := trace.NewZipfSource("zipf", pages, 1.1, 0, 3)
			cfg := DefaultConfig(w, mk(), pages/17)
			cfg.Ops = 300_000
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		want := run()
		adopted := 0
		for i := 0; i < 3; i++ {
			poison := poisonedBuffers(pages)
			seedPool(poison)
			if got := run(); !bytes.Equal(got, want) {
				t.Fatalf("%s: run %d after poisoning the pool diverges from the clean run", name, i)
			}
			if poison.ring[0].Time != math.MaxInt64/2 {
				adopted++
			}
		}
		t.Logf("%s: poisoned buffers adopted in %d of 3 runs", name, adopted)
	}
}
