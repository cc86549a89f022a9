package main

// The benchmark's workloads: which sweep specs each one runs, all derived
// from the --seed argument.

import (
	"runtime"

	hybridtier "repro"
	"repro/internal/experiments"
	"repro/internal/registry"
)

// sizes holds every size knob, so the smoke test can run each workload
// end to end at a tiny scale with the same code.
type sizes struct {
	gridOps    int64 // per-cell ops of the paper grid (Quick scale)
	scanOps    int64 // per-cell ops of tracker-scan
	daemonOps  int64 // per-cell ops of a daemon cold submit
	fleetOps   int64 // per-cell ops of the daemon's larger fleet sweep
	captureOps int64 // ops captured per stream for the isolated replays
	hits       int   // cache hits (fetches plus revalidations) in a sim workload's tail
	fleetReps  int   // fleet sweeps (and resumes) per run
	setupReps  int   // set-ups per run; setup_s is their median
	tracedIter int   // closed-loop iterations per daemon traced phase
	minRefs    int   // daemon cold submits checked against in-process runs
	replayReps int   // repeats of each isolated replay; the median is kept
}

var fullSizes = sizes{
	gridOps: experiments.Quick.Ops, scanOps: 300_000, daemonOps: 20_000, fleetOps: 120_000,
	captureOps: 40_000, hits: 3000, fleetReps: 10, setupReps: 9, tracedIter: 40, minRefs: 8, replayReps: 5,
}

var tinySizes = sizes{
	gridOps: 2_000, scanOps: 3_000, daemonOps: 1_000, fleetOps: 1_000,
	captureOps: 500, hits: 20, fleetReps: 1, setupReps: 2, tracedIter: 3, minRefs: 2, replayReps: 1,
}

// simWorkers is the sweep worker count: at most two threads of work.
func simWorkers() int { return min(2, runtime.NumCPU()) }

// deriveSeed maps (seed, a, b) to a nonzero seed with splitmix64.
func deriveSeed(seed, a, b uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + a*0xbf58476d1ce4e5b9 + b*0x94d049bb133111eb + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// quickParams sizes workloads like the experiments' Quick scale.
func quickParams() *registry.WorkloadParams {
	p := experiments.Quick.Params(0)
	return &p
}

// namedSpec is one sweep spec of a pass, with the figure it belongs to.
type namedSpec struct {
	group string
	spec  hybridtier.SweepSpec
}

func policyNames(names ...string) []hybridtier.PolicyName {
	out := make([]hybridtier.PolicyName, len(names))
	for i, n := range names {
		out[i] = hybridtier.PolicyName(n)
	}
	return out
}

// paperGrid is one pass of the fig9, fig10 and fig12 grids at Quick
// scale, one sweep per workload as internal/experiments runs them, every
// cell on one seed: 24 sweeps, 192 cells.
func paperGrid(seed uint64, z sizes) []namedSpec {
	var out []namedSpec
	all := experiments.PolicyNames()
	ratios := experiments.Quick.Ratios
	add := func(group, wl string, pols []string, huge bool) {
		out = append(out, namedSpec{group, hybridtier.SweepSpec{
			Workload: wl, Params: quickParams(), Policies: policyNames(pols...),
			Ratios: ratios, Seeds: []uint64{seed}, Ops: z.gridOps, Huge: huge,
		}})
	}
	for _, wl := range []string{"cdn", "social"} {
		add("fig9", wl, all, false)
	}
	for _, wl := range experiments.WorkloadNames() {
		if wl != "cdn" && wl != "social" {
			add("fig10", wl, all, false)
		}
	}
	for _, wl := range experiments.WorkloadNames() {
		add("fig12", wl, []string{"HybridTier", "Memtis"}, true)
	}
	return out
}

// scanMix is tracker-scan's workload: cdn writes, silo only reads.
const scanMix = "mix:1*(cdn),1*(silo)"

// scanPolicies are tracker-scan's policies, all on scanning trackers.
var scanPolicies = []string{"HybridTier@idlepage", "Memtis@idlepage", "Age-Idle", "Heat-Idle", "Heat-Dirty"}

// trackerScan is one pass of tracker-scan: one sweep per policy over
// ratios {16, 4} and three seeds, so no sweep shares a generated stream.
func trackerScan(seed uint64, z sizes) []namedSpec {
	seeds := []uint64{deriveSeed(seed, 1, 0), deriveSeed(seed, 2, 0), deriveSeed(seed, 3, 0)}
	var out []namedSpec
	for _, p := range scanPolicies {
		out = append(out, namedSpec{"scan", hybridtier.SweepSpec{
			Workload: scanMix, Params: quickParams(), Policies: policyNames(p),
			Ratios: []int{16, 4}, Seeds: seeds, Ops: z.scanOps,
		}})
	}
	return out
}

// daemonCold is the daemon's closed-loop cold submit.
func daemonCold(seed uint64, z sizes) hybridtier.SweepSpec {
	return hybridtier.SweepSpec{
		Workload: "cdn", Params: quickParams(), Policies: policyNames("HybridTier", "Memtis"),
		Ratios: []int{16, 8, 4}, Seeds: []uint64{seed}, Ops: z.daemonOps,
	}
}

// family is one benchmark workload.
type family struct {
	name string
	// pass returns one pass of in-process sweeps (nil for the daemon).
	pass func(seed uint64, z sizes) []namedSpec
	// fleet is the spec the service tail sweeps through the fleet and
	// resumes from a journal.
	fleet func(seed uint64, z sizes) hybridtier.SweepSpec
	// captures name the workloads whose streams the isolated replays and
	// the trace uploads use.
	captures []string
}

var families = []family{
	{
		name: "paper-grid",
		pass: paperGrid,
		fleet: func(seed uint64, z sizes) hybridtier.SweepSpec {
			return paperGrid(seed, z)[0].spec // fig9 cdn: 6 policies x 2 ratios
		},
		captures: experiments.WorkloadNames(),
	},
	{
		name: "tracker-scan",
		pass: trackerScan,
		fleet: func(seed uint64, z sizes) hybridtier.SweepSpec {
			return trackerScan(seed, z)[0].spec
		},
		captures: []string{scanMix},
	},
	{
		name: "daemon",
		fleet: func(seed uint64, z sizes) hybridtier.SweepSpec {
			return hybridtier.SweepSpec{
				Workload: "cdn", Params: quickParams(),
				Policies: policyNames("HybridTier", "Memtis", "TPP", "AutoNUMA"),
				Ratios:   []int{16, 8, 4}, Seeds: []uint64{seed}, Ops: z.fleetOps,
			}
		},
		captures: []string{"cdn"},
	},
}

func familyNamed(name string) (family, bool) {
	for _, f := range families {
		if f.name == name {
			return f, true
		}
	}
	return family{}, false
}
