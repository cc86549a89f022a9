package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	hybridtier "repro"
	"repro/internal/registry"
	"repro/internal/trace"
)

// TestDecoratorsKeepInterfaceSets: a traced policy or workload must
// expose exactly the optional interfaces the plain one does, or tracing
// would switch the shared stream, the fault bitmap or the recency
// bookkeeping on or off and measure a different program.
func TestDecoratorsKeepInterfaceSets(t *testing.T) {
	l := &ledger{}
	pols, wls := tracedRegistries(l)
	for _, name := range registry.Policies.Names() {
		for _, huge := range []bool{false, true} {
			plain, _, err := registry.Policies.New(name, 1<<14, 1<<10, huge)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			traced, _, err := pols.New(name, 1<<14, 1<<10, huge)
			if err != nil {
				t.Fatalf("traced %s: %v", name, err)
			}
			if a, b := policyIfaces(plain), policyIfaces(traced); a != b {
				t.Errorf("policy %s (huge %v): interface set %#x, traced %#x", name, huge, a, b)
			}
		}
	}
	params := registry.WorkloadParams{Seed: 7, CacheObjects: 500, GraphScale: 10, Cells: 1 << 12, Records: 1 << 12, Rows: 1 << 12, Features: 8}
	names := append(registry.Workloads.Names(), scanMix)
	for _, name := range names {
		plain, err := registry.Workloads.New(name, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Composite specs resolve their leaves through the traced registry.
		orig := registry.Workloads
		registry.Workloads = wls
		traced, err := wls.New(name, params)
		registry.Workloads = orig
		if err != nil {
			t.Fatalf("traced %s: %v", name, err)
		}
		if a, b := sourceIfaces(plain), sourceIfaces(traced); a != b {
			t.Errorf("workload %s: interface set %#x, traced %#x", name, a, b)
		}
		if cf, ok := plain.(trace.ClockFree); ok && cf.ClockFree() != traced.(trace.ClockFree).ClockFree() {
			t.Errorf("workload %s: traced ClockFree() differs", name)
		}
	}
}

// TestTracedCellsMatchUntraced: sweeps run under the traced registries
// marshal to the same bytes as untraced ones — with the shared stream
// (one seed), without it (two seeds), with a fault-driven policy, and on
// a composed workload — and the decorators really were on the path.
func TestTracedCellsMatchUntraced(t *testing.T) {
	specs := []hybridtier.SweepSpec{
		{Workload: "cdn", Params: quickParams(), Policies: policyNames("HybridTier", "TPP", "Memtis@idlepage"),
			Ratios: []int{8}, Seeds: []uint64{3}, Ops: 20_000},
		{Workload: scanMix, Params: quickParams(), Policies: policyNames("Heat-Dirty", "AutoNUMA"),
			Ratios: []int{4}, Seeds: []uint64{3, 4}, Ops: 20_000},
		{Workload: "bfs-kron", Params: quickParams(), Policies: policyNames("HybridTier", "Memtis"),
			Ratios: []int{16}, Seeds: []uint64{5}, Ops: 20_000, Huge: true},
	}
	run := func(s hybridtier.SweepSpec) []byte {
		sw, err := s.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		sw.Workers = 2
		cells, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCells(cells, s.Ops); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var plain [][]byte
	for _, s := range specs {
		plain = append(plain, run(s))
	}
	l := &ledger{}
	restore := installTracing(l)
	defer restore()
	for i, s := range specs {
		if got := run(s); !bytes.Equal(got, plain[i]) {
			t.Errorf("spec %d (%s): traced JSON differs from untraced", i, s.Workload)
		}
	}
	sources, pols, _ := l.snapshot()
	var fetches, faults int64
	for _, s := range sources {
		fetches += s.nextOp.calls.Load() + s.nextBatch.calls.Load()
	}
	for _, p := range pols {
		faults += p.onFault.calls.Load()
		if p.start.Load() == 0 || p.end.Load() < p.start.Load() {
			t.Errorf("policy instance without a cell span")
		}
	}
	if len(pols) != 3+4+2 || fetches == 0 || faults == 0 {
		t.Errorf("ledger saw %d policy instances (want 9), %d fetches, %d faults", len(pols), fetches, faults)
	}
}
