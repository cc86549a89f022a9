package main

// Per-layer numbers: isolated replays of the layers sim.Run inlines, and
// the reduction of a traced phase's ledger and spans into metrics.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/tracker"
)

// replayNsPerOp is the virtual time the isolated replays advance per op;
// it only spaces tracker scans and time-series windows, and is set so a
// capture spans several 20 ms scans.
const replayNsPerOp = 5000

// isolated holds per-access (or per-op) ns of each replayed layer.
type isolated map[string]float64

// medianOf runs fn reps times and keeps the median of its ns-per-unit.
func medianOf(reps int, units int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(units))
	}
	return median(xs)
}

// replayLayers replays each captured stream through the public functions
// of mem, tracker, stats and cachesim, and reads each uploaded trace back
// through tracefile. Per-layer ns are averaged over the captures,
// weighted by their access counts.
func replayLayers(caps []capturedStream, tracePaths []string, reps int) (isolated, error) {
	sum := isolated{}
	var weight float64
	for i, c := range caps {
		accs := unpack(c.rs)
		n := len(accs)
		w := float64(n)
		weight += w
		numPages := c.rs.NumPages()
		fast := max(16, numPages/9)

		sum["mem.touch_ns"] += w * medianOf(reps, n, func() {
			m := mem.MustNew(mem.Config{NumPages: numPages, FastPages: fast, PageBytes: mem.RegularPageBytes, Alloc: mem.AllocFastFirst})
			for _, a := range accs {
				m.Touch(mem.PageID(a.Page))
			}
		})
		for _, kind := range tracker.Kinds() {
			obs, sync := trackerReplay(kind, accs, numPages, reps)
			sum["tracker.observe_ns."+kind] += w * obs
			if kind != tracker.KindPEBS {
				sum["tracker.sync_ns_per_page."+kind] += w * sync
			}
		}
		ops := 0
		for _, a := range accs {
			if a.EndOp {
				ops++
			}
		}
		sum["stats.observe_ns_per_op"] += w * medianOf(reps, ops, func() {
			h := stats.NewHistogram(0, 50_000, 8192)
			ts := stats.NewTimeSeries(100_000_000, 0, 50_000, 4096)
			now := int64(0)
			for _, a := range accs {
				if a.EndOp {
					now += replayNsPerOp
					v := int64(80 + a.Page*2654435761%400)
					h.Observe(v)
					ts.Observe(now, v)
				}
			}
		})
		sum["cachesim.access_ns"] += w * medianOf(reps, n, func() {
			hc := cachesim.NewDefault()
			for j, a := range accs {
				hc.Access(int64(a.Page)*mem.RegularPageBytes+int64(j%64)*cachesim.LineBytes, cachesim.App)
			}
		})
		if i < len(tracePaths) {
			ns, err := traceReplay(tracePaths[i], n, reps)
			if err != nil {
				return nil, err
			}
			sum["tracefile.replay_ns_per_access"] += w * ns
		}
	}
	for k := range sum {
		sum[k] /= weight
	}
	return sum, nil
}

// unpack materializes a captured stream, op ends marked.
func unpack(rs *trace.ReplaySource) []trace.Access {
	return rs.Fork().NextBatch(nil, int(rs.Ops()))
}

// trackerReplay feeds accesses to a tracker of kind the way sim.Run does
// — every Period-th access through Observe, the rest folded in with
// ObserveSkipped, Sync at every 10 virtual ms tick, samples drained — and
// returns ns per access observed and Sync ns per page per scan.
func trackerReplay(kind string, accs []trace.Access, numPages, reps int) (observe, sync float64) {
	var obs, syn []float64
	for r := 0; r < reps; r++ {
		cfg := tracker.DefaultConfig()
		cfg.Kind = kind
		trk, err := tracker.New(cfg, numPages, nil)
		if err != nil {
			panic(err) // the three built-in kinds always construct
		}
		period := trk.Period()
		left := period
		var drained []pebs.Sample
		var syncNs, scans int64
		now, nextTick := int64(0), int64(10_000_000)
		start := time.Now()
		for _, a := range accs {
			if left--; left == 0 {
				trk.Observe(mem.PageID(a.Page), mem.Fast, now, a.Write)
				left = period
			}
			if a.EndOp {
				now += replayNsPerOp
				if now >= nextTick {
					s := time.Now()
					if trk.Sync(now) != 0 {
						scans++
					}
					syncNs += int64(time.Since(s))
					nextTick += 10_000_000
				}
				if trk.Pending() >= 256 {
					drained = trk.Drain(drained[:0], 256)
				}
			}
		}
		trk.ObserveSkipped(period - left)
		total := int64(time.Since(start))
		obs = append(obs, float64(total-syncNs)/float64(len(accs)))
		if scans > 0 {
			syn = append(syn, float64(syncNs)/float64(scans)/float64(numPages))
		}
	}
	return median(obs), median(syn)
}

// traceReplay reads a stored trace back through tracefile's batch path.
func traceReplay(path string, accesses, reps int) (float64, error) {
	var err error
	ns := medianOf(reps, accesses, func() {
		r, oerr := tracefile.Open(path)
		if oerr != nil {
			err = oerr
			return
		}
		defer r.Close()
		bs := trace.AsBatchSource(r)
		var buf []trace.Access
		for got := 0; got < accesses; {
			buf = bs.NextBatch(buf[:0], 512)
			if len(buf) == 0 {
				err = fmt.Errorf("trace %s ended early", path)
				return
			}
			got += len(buf)
		}
		if rerr := r.Err(); rerr != nil {
			err = rerr
		}
	})
	return ns, err
}

// layerInputs is everything a traced phase produced.
type layerInputs struct {
	ledger     *ledger
	reqSpans   []span
	simRuns    []specRun // every run whose cells the phase simulated, for model counts
	phaseWall  time.Duration
	untraced   time.Duration // the same primary work untraced
	traced     time.Duration // the same primary work traced
	allocBytes uint64
	gcs        uint32
	allocOps   int64
	jobInfos   []jobTimes
	tail       tailOut
	iso        isolated
	cacheHits  int // result-bearing responses served from the cache
	cacheAll   int // all result-bearing responses
	balance    float64
}

// jobTimes are one job's /jobs/{id} timestamps, in ms.
type jobTimes struct{ queue, run float64 }

// layerMetrics reduces a traced phase into the per-layer metrics.
func layerMetrics(in layerInputs) map[string]measured {
	out := map[string]measured{}
	put := func(name string, v float64, n int) {
		out[name] = measured{value: v, samples: n}
	}
	sources, pols, spans := in.ledger.snapshot()
	model := countModel(in.simRuns)

	var fetchNs, buildNs float64
	var accesses, batches int64
	for _, s := range sources {
		ns := s.nextOp.estNs() + s.nextBatch.estNs()
		fetchNs += ns
		accesses += s.accesses.Load()
		batches += s.nextBatch.calls.Load()
		if s.streamBuilder() {
			buildNs += ns
		}
	}
	put("trace.fetch_ns_per_access", ratio(fetchNs, float64(accesses)), len(sources))
	put("trace.batches", float64(batches), 0)
	put("trace.gen_per_sim_access", ratio(float64(accesses), float64(model.accesses)), 0)
	put("sweep.stream_build_s", buildNs/1e9, 0)

	var cellNs, sampleNs, tickNs, faultNs float64
	var samples, onSamples, ticks, faults int64
	for _, p := range pols {
		if s, e := p.start.Load(), p.end.Load(); s > 0 && e > s {
			cellNs += float64(e - s)
		}
		sampleNs += p.onSamples.estNs()
		samples += p.samples.Load()
		onSamples += p.onSamples.calls.Load()
		tickNs += p.tick.estNs()
		ticks += p.tick.calls.Load()
		faultNs += p.onFault.estNs()
		faults += p.onFault.calls.Load()
	}
	// Cells only: stream-builder fetch time falls outside every cell.
	cellFetch := fetchNs - buildNs
	put("sweep.busy_ratio", ratio(cellNs, float64(simWorkers())*float64(in.phaseWall)), len(pols))
	cellErrors := 0
	for _, c := range cellsOf(in.simRuns) {
		if c.Err != "" {
			cellErrors++
		}
	}
	put("sweep.cell_errors", float64(cellErrors), 0)
	put("sim.ns_per_op", ratio(cellNs, float64(model.ops)), len(pols))
	put("sim.self_ns_per_op", ratio(cellNs-cellFetch-sampleNs-tickNs-faultNs, float64(model.ops)), len(pols))
	put("policy.on_samples_ns_per_sample", ratio(sampleNs, float64(samples)), int(onSamples))
	put("policy.on_samples_calls", float64(onSamples), 0)
	put("policy.tick_ns", ratio(tickNs, float64(ticks)), int(ticks))
	put("policy.ticks", float64(ticks), 0)
	put("policy.on_fault_ns", ratio(faultNs, float64(faults)), int(faults))
	put("policy.faults", float64(faults), 0)
	put("policy.metadata_bytes", ratio(float64(model.metadataBytes), float64(model.cells)), model.cells)

	for _, k := range []string{"tracker.observe_ns.pebs", "tracker.observe_ns.idlepage", "tracker.observe_ns.softdirty",
		"tracker.sync_ns_per_page.idlepage", "tracker.sync_ns_per_page.softdirty", "mem.touch_ns",
		"stats.observe_ns_per_op", "cachesim.access_ns", "tracefile.replay_ns_per_access"} {
		put(k, in.iso[k], 0)
	}
	put("tracker.sampled", float64(model.sampled), 0)
	put("tracker.dropped", float64(model.dropped), 0)
	put("tracker.drop_ratio", ratio(float64(model.dropped), float64(model.sampled)), 0)
	put("mem.promotions", float64(model.promotions), 0)
	put("mem.demotions", float64(model.demotions), 0)
	put("mem.promo_fail_ratio", ratio(float64(model.failedPromos), float64(model.promotions+model.failedPromos)), 0)
	put("cachesim.tiering_llc_miss_ratio", ratio(float64(model.tieringLLCMisses), float64(model.tieringLLCAccesses)), 0)
	put("go.alloc_bytes_per_op", ratio(float64(in.allocBytes), float64(in.allocOps)), 0)
	put("go.gc_cycles", float64(in.gcs), 0)

	var queue, run []float64
	for _, j := range in.jobInfos {
		queue = append(queue, j.queue)
		run = append(run, j.run)
	}
	put("jobs.queue_wait_ms", median(queue), len(queue))
	put("jobs.run_ms", median(run), len(run))
	put("jobs.cache_hit_ratio", ratio(float64(in.cacheHits), float64(in.cacheAll)), in.cacheAll)
	put("jobs.resume_open_ms", median(in.tail.resumeOpen), len(in.tail.resumeOpen))
	put("jobs.resume_cells_rerun", float64(in.tail.rerun), 0)

	routes := map[string][]float64{}
	non2xx := 0
	for _, s := range in.reqSpans {
		routes[s.name] = append(routes[s.name], float64(s.end.Sub(s.start).Microseconds()))
		if s.err || s.status >= 300 && s.status != 304 {
			non2xx++
		}
	}
	for metric, route := range map[string]string{
		"service.post_jobs":       "POST /jobs",
		"service.events":          "GET /jobs/{id}/events",
		"service.get_results_200": "GET /results/{id}",
		"service.get_results_304": "GET /results/{id} 304",
		"service.post_traces":     "POST /traces",
	} {
		put(metric+"_p50_us", median(routes[route]), len(routes[route]))
		put(metric+"_count", float64(len(routes[route])), 0)
	}
	put("service.non2xx", float64(non2xx), 0)

	// Self time of a submit request: the request span minus the job.run
	// span (same spec hash) it waited on.
	jobRun := map[string]time.Duration{}
	var rpcMs, workerMs []float64
	rpcErrors := 0
	for _, s := range spans {
		switch {
		case s.name == "job.run":
			jobRun[s.id] = s.end.Sub(s.start)
		case s.name == "worker.run":
			workerMs = append(workerMs, float64(s.end.Sub(s.start).Microseconds())/1e3)
		case strings.HasPrefix(s.name, "rpc POST /fabric/run"):
			rpcMs = append(rpcMs, float64(s.end.Sub(s.start).Microseconds())/1e3)
		}
		if strings.HasPrefix(s.name, "rpc ") && s.err {
			rpcErrors++
		}
	}
	var self []float64
	for _, sub := range in.tail.submits {
		if d, ok := jobRun[sub.hash]; ok {
			self = append(self, float64((sub.latency-d).Microseconds())/1e3)
		}
	}
	put("service.submit_self_ms", median(self), len(self))
	put("fabric.shard_rpcs", float64(len(rpcMs)), 0)
	put("fabric.shard_rpc_ms", median(rpcMs), len(rpcMs))
	put("fabric.rpc_errors", float64(rpcErrors), 0)
	put("fabric.worker_run_ms", median(workerMs), len(workerMs))
	put("fabric.balance", in.balance, 0)
	put("corpus.upload_ms", median(durs(in.tail.uploadLat, time.Millisecond)), len(in.tail.uploadLat))
	put("tracing.overhead", ratio(float64(in.traced), float64(in.untraced))-1, 0)
	return out
}
