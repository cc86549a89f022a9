package main

// Metric names and units. BENCHMARK.json lists the same names; the smoke
// test pins the two lists to each other.

import (
	"math"
	"sort"
	"time"

	hybridtier "repro"
	"repro/internal/cachesim"
	"repro/internal/registry"
)

type metricDef struct{ name, unit string }

// endToEnd are printed by every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mops", "Mop/s"},
	{"peak_rss_mb", "MB"},
	{"ht_speedup_geomean", "ratio"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"hit_p50_us", "us"},
	{"hit_p90_us", "us"},
	{"fleet_sweep_s", "s"},
	{"resume_s", "s"},
}

// perLayer are printed by every workload's traced run.
var perLayer = []metricDef{
	{"trace.fetch_ns_per_access", "ns"},
	{"trace.batches", "count"},
	{"trace.gen_per_sim_access", "ratio"},
	{"sweep.stream_build_s", "s"},
	{"sweep.busy_ratio", "ratio"},
	{"sweep.cell_errors", "count"},
	{"sim.ns_per_op", "ns"},
	{"sim.self_ns_per_op", "ns"},
	{"policy.on_samples_ns_per_sample", "ns"},
	{"policy.on_samples_calls", "count"},
	{"policy.tick_ns", "ns"},
	{"policy.ticks", "count"},
	{"policy.on_fault_ns", "ns"},
	{"policy.faults", "count"},
	{"policy.metadata_bytes", "bytes"},
	{"tracker.observe_ns.pebs", "ns"},
	{"tracker.observe_ns.idlepage", "ns"},
	{"tracker.observe_ns.softdirty", "ns"},
	{"tracker.sync_ns_per_page.idlepage", "ns"},
	{"tracker.sync_ns_per_page.softdirty", "ns"},
	{"tracker.sampled", "count"},
	{"tracker.dropped", "count"},
	{"tracker.drop_ratio", "ratio"},
	{"mem.touch_ns", "ns"},
	{"mem.promotions", "count"},
	{"mem.demotions", "count"},
	{"mem.promo_fail_ratio", "ratio"},
	{"stats.observe_ns_per_op", "ns"},
	{"cachesim.access_ns", "ns"},
	{"cachesim.tiering_llc_miss_ratio", "ratio"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.resume_open_ms", "ms"},
	{"jobs.resume_cells_rerun", "count"},
	{"service.post_jobs_p50_us", "us"},
	{"service.post_jobs_count", "count"},
	{"service.events_p50_us", "us"},
	{"service.events_count", "count"},
	{"service.get_results_200_p50_us", "us"},
	{"service.get_results_200_count", "count"},
	{"service.get_results_304_p50_us", "us"},
	{"service.get_results_304_count", "count"},
	{"service.post_traces_p50_us", "us"},
	{"service.post_traces_count", "count"},
	{"service.non2xx", "count"},
	{"service.submit_self_ms", "ms"},
	{"fabric.shard_rpcs", "count"},
	{"fabric.shard_rpc_ms", "ms"},
	{"fabric.rpc_errors", "count"},
	{"fabric.worker_run_ms", "ms"},
	{"fabric.balance", "ratio"},
	{"corpus.upload_ms", "ms"},
	{"tracefile.replay_ns_per_access", "ns"},
	{"tracing.overhead", "ratio"},
}

// measured is one printed metric: its value and how many samples it
// summarizes (0 for exact model counts and single readings).
type measured struct {
	value   float64
	samples int
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics (0 for an empty list).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// speedups pairs Memtis and HybridTier cells that differ only in policy
// (same workload, page size, ratio, seed and tracker) and returns
// Memtis ÷ HybridTier virtual elapsed time for each pair.
func speedups(runs []specRun) []float64 {
	type key struct {
		workload string
		huge     bool
		ratio    int
		seed     uint64
		tracker  string
	}
	ht, mt := map[key]int64{}, map[key]int64{}
	for _, r := range runs {
		for _, c := range r.cells {
			pol, trk, _ := registry.SplitPolicyQualifier(string(c.Policy))
			k := key{r.spec.Workload, r.spec.Huge, c.Ratio, c.Seed, trk}
			switch pol {
			case "HybridTier":
				ht[k] = c.Result.ElapsedNs
			case "Memtis":
				mt[k] = c.Result.ElapsedNs
			}
		}
	}
	var out []float64
	for k, h := range ht {
		if m, ok := mt[k]; ok && h > 0 {
			out = append(out, float64(m)/float64(h))
		}
	}
	sort.Float64s(out)
	return out
}

// modelCounts sums the exact per-cell counters of a set of runs.
type modelCounts struct {
	cells                                int
	accesses, sampled, dropped           uint64
	promotions, demotions, failedPromos  uint64
	metadataBytes                        int64
	tieringLLCAccesses, tieringLLCMisses uint64
	ops                                  int64
}

func countModel(runs []specRun) modelCounts {
	var m modelCounts
	for _, r := range runs {
		for _, c := range r.cells {
			res := c.Result
			m.cells++
			m.ops += res.Ops
			m.accesses += res.Pebs.Accesses
			m.sampled += res.Pebs.Sampled
			m.dropped += res.Pebs.Dropped
			m.promotions += res.Mem.Promotions
			m.demotions += res.Mem.Demotions
			m.failedPromos += res.Mem.FailedPromos
			m.metadataBytes += res.MetadataBytes
			m.tieringLLCAccesses += res.LLC.Accesses[cachesim.Tiering]
			m.tieringLLCMisses += res.LLC.Misses[cachesim.Tiering]
		}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cellsOf flattens runs into their cell results.
func cellsOf(runs []specRun) []hybridtier.CellResult {
	var out []hybridtier.CellResult
	for _, r := range runs {
		out = append(out, r.cells...)
	}
	return out
}
