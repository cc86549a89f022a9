// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the simulator and the daemon from outside,
// through their public functions and HTTP API, and checks every output.
//
//	benchmark --workload paper-grid|tracker-scan|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same work untraced and then traced, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is one invocation.
type runConfig struct {
	fam     family
	seed    uint64
	seconds float64
	trace   bool
	z       sizes
	root    string // scratch directory, inside the checkout
}

// report is one run's outcome.
type report struct {
	t       tally
	metrics map[string]measured
	info    []string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-grid, tracker-scan or daemon")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run")
	tiny := fs.Bool("tiny", false, "tiny sizes (smoke test)")
	scratch := fs.String("scratch", ".bench_build/tmp", "scratch directory for daemon stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fam, ok := familyNamed(*workload)
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload paper-grid|tracker-scan|daemon, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	root, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(root)
	cfg := runConfig{fam: fam, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, z: fullSizes, root: root}
	if *tiny {
		cfg.z = tinySizes
	}
	fmt.Fprintln(stdout, fingerprint(*seed))
	// Flush what earlier processes left dirty in the page cache: the
	// daemon's set-up fsyncs its journal, and without this its time
	// depends on how much the previous run wrote.
	settle()
	steal0, total0 := cpuSteal()
	rep, err := runFamily(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	steal1, total1 := cpuSteal()
	rep.info = append(rep.info, fmt.Sprintf("info host steal %.1f%% of CPU time during the run",
		100*ratio(float64(steal1-steal0), float64(total1-total0))))
	return printReport(stdout, cfg, rep)
}

// fingerprint names the machine and build, per the repository rule that
// every number states where it was measured.
func fingerprint(seed uint64) string {
	pgo := "off"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				pgo = "on"
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("machine nproc=%d gomaxprocs=%d go=%s pgo=%s cpu=%q seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), pgo, cpu, seed)
}

// cpuSteal reads the steal and total jiffies of all CPUs from /proc/stat:
// the share of time the hypervisor gave this machine's vCPUs to others,
// which moves every wall-clock metric on a shared host.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// printReport prints the human-readable lines and then the result JSON.
func printReport(w io.Writer, cfg runConfig, rep *report) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, line := range rep.info {
		fmt.Fprintln(w, line)
	}
	for _, e := range rep.t.errs {
		fmt.Fprintln(w, "FAILED", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintln(w, "missing metric", d.name)
			rep.t.failed++
			continue
		}
		fmt.Fprintf(w, "metric %-36s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.samples)
		metrics[d.name] = value{m.value, d.unit}
	}
	fmt.Fprintf(w, "workload %s attempted=%d failed=%d\n", cfg.fam.name, rep.t.attempted, rep.t.failed)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.t.failed == 0 && rep.t.attempted > 0, max(rep.t.attempted, 1), rep.t.failed, metrics})
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(out))
	return 0
}

// resultSHA digests result bytes in order, so a reader can see results
// did not change between runs of the same seed.
func resultSHA(runs []specRun) string {
	h := sha256.New()
	for _, r := range runs {
		h.Write(r.out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runFamily(cfg runConfig) (*report, error) {
	rep := &report{metrics: map[string]measured{}}
	cl := newClient()
	d, caps, setupS, err := setUp(cfg, cl)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	if cfg.trace {
		untraced := d
		d = nil
		return rep, tracedRun(cfg, rep, untraced, cl, caps)
	}
	put := func(name string, v float64, n int) { rep.metrics[name] = measured{value: v, samples: n} }
	put("setup_s", setupS, cfg.z.setupReps)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var primary []specRun
	var submitMs []float64
	if cfg.fam.pass != nil {
		var mops []float64
		groups := map[string][]float64{}
		runtime.GC()
		start := time.Now()
		for p := 0; ; p++ {
			if el := time.Since(start); p > 0 && el+el/time.Duration(p) > budget {
				break
			}
			po := simPass(cfg.fam.pass(deriveSeed(cfg.seed, 0, uint64(p)), cfg.z), &rep.t)
			if p == 0 {
				primary = po.runs
			}
			mops = append(mops, float64(po.ops())/po.wall.Seconds()/1e6)
			sums := map[string]float64{}
			for _, r := range po.runs {
				submitMs = append(submitMs, float64(r.latency.Microseconds())/1e3)
				sums[r.group] += r.latency.Seconds()
			}
			for g, s := range sums {
				groups[g] = append(groups[g], s)
			}
		}
		put("sim_mops", median(mops), len(mops))
		rep.info = append(rep.info, fmt.Sprintf("info sim_mops per pass %.4g", mops))
		for _, g := range []string{"fig9", "fig10", "fig12", "scan"} {
			if xs, ok := groups[g]; ok {
				rep.info = append(rep.info, fmt.Sprintf("info sweep.%s_s %.4f s median of %d passes", g, median(xs), len(xs)))
			}
		}
	} else {
		lo := daemonLoop(d, cfg.seed, cfg.z, 0, budget, &rep.t)
		put("sim_mops", float64(lo.ops)/lo.wall.Seconds()/1e6, len(lo.submitLat))
		submitMs = durs(lo.submitLat, time.Millisecond)
		primary = checkCold(lo.cold, cfg.z.minRefs, &rep.t)
	}
	refs := fleetRefs(cfg.fam, cfg.seed, cfg.z, &rep.t)
	tail := serviceTail(d, cfg.fam, cfg.z, primaryIfSim(cfg.fam, primary), refs, caps, cfg.root, nil, &rep.t)
	if tail.corpus != nil {
		tail.corpus.check(&rep.t)
	}
	hitUs := durs(d.hits.served(), time.Microsecond)
	sp := speedups(primary)
	put("ht_speedup_geomean", geomean(sp), len(sp))
	put("submit_p50_ms", median(submitMs), len(submitMs))
	put("submit_p90_ms", quantile(submitMs, 0.90), len(submitMs))
	put("hit_p50_us", median(hitUs), len(hitUs))
	put("hit_p90_us", quantile(hitUs, 0.90), len(hitUs))
	put("fleet_sweep_s", median(tail.fleet), len(tail.fleet))
	put("resume_s", median(tail.resume), len(tail.resume))
	put("peak_rss_mb", peakRSSMB(), 0)
	rep.info = append(rep.info, fmt.Sprintf("result_sha256 %s %s", cfg.fam.name, resultSHA(primary)))
	return rep, nil
}

// primaryIfSim passes a sim workload's computed results to the service
// tail's cache-hit phase; the daemon workload makes its own hits.
func primaryIfSim(fam family, runs []specRun) []specRun {
	if fam.pass == nil {
		return nil
	}
	return runs
}

// tracedRun runs the workload's primary work untraced, then the same
// work traced (same seed, so the same inputs) followed by the service
// tail, and reduces the traced phase to per-layer metrics. A warm-up of
// the same size comes first, so neither timed side pays for filling the
// process's pools and heap. The traced Result JSON must equal the
// untraced bytes. Reference runs for the correctness checks happen
// outside the traced phase.
func tracedRun(cfg runConfig, rep *report, d *daemon, cl *client, caps []capturedStream) error {
	var in layerInputs
	var untracedRuns []specRun
	var untracedLoop loopOut
	refs := fleetRefs(cfg.fam, cfg.seed, cfg.z, &rep.t)
	if cfg.fam.pass != nil {
		specs := cfg.fam.pass(deriveSeed(cfg.seed, 0, 0), cfg.z)
		simPass(specs, &rep.t)
		mem := startMem()
		u := simPass(specs, &rep.t)
		in.allocBytes, in.gcs = mem.stop()
		untracedRuns, in.untraced, in.allocOps = u.runs, u.wall, u.ops()
	} else {
		daemonLoop(d, deriveSeed(cfg.seed, 13, 0), cfg.z, cfg.z.tracedIter, 0, &rep.t)
		mem := startMem()
		untracedLoop = daemonLoop(d, cfg.seed, cfg.z, cfg.z.tracedIter, 0, &rep.t)
		in.allocBytes, in.gcs = mem.stop()
		in.untraced, in.allocOps = untracedLoop.wall, untracedLoop.ops
	}
	d.close()
	cl.takeSpans()

	in.ledger = &ledger{}
	restore := installTracing(in.ledger)
	restored := false
	defer func() {
		if !restored {
			restore()
		}
	}()
	dt, err := startDaemon(cfg.root, in.ledger, cl)
	if err != nil {
		return err
	}
	defer dt.close()
	start := time.Now()
	var primary []specRun
	if cfg.fam.pass != nil {
		tp := simPass(cfg.fam.pass(deriveSeed(cfg.seed, 0, 0), cfg.z), &rep.t)
		in.traced, primary = tp.wall, tp.runs
		rep.t.record("traced = untraced", sameOutputs(untracedRuns, primary))
	} else {
		tl := daemonLoop(dt, cfg.seed, cfg.z, cfg.z.tracedIter, 0, &rep.t)
		in.traced = tl.wall
		var err error
		if len(tl.cold) != len(untracedLoop.cold) {
			err = errors.New("traced loop ran a different number of submits")
		}
		for i := 0; err == nil && i < len(tl.cold); i++ {
			if string(tl.cold[i].sub.result) != string(untracedLoop.cold[i].sub.result) {
				err = fmt.Errorf("traced submit %d served different bytes", i)
			}
			r := specRun{spec: tl.cold[i].spec, out: tl.cold[i].sub.result}
			if err == nil {
				err = json.Unmarshal(r.out, &r.cells)
			}
			primary = append(primary, r)
			in.tail.submits = append(in.tail.submits, tl.cold[i].sub)
		}
		rep.t.record("traced = untraced", err)
		in.cacheHits = tl.resubmits + tl.hits
		in.cacheAll = in.cacheHits + len(tl.cold)
	}
	tail := serviceTail(dt, cfg.fam, cfg.z, primaryIfSim(cfg.fam, primary), refs, caps, cfg.root, in.ledger, &rep.t)
	in.phaseWall = time.Since(start)
	tail.submits = append(in.tail.submits, tail.submits...)
	in.tail = tail
	if cfg.fam.pass != nil {
		in.cacheHits = tail.hits
		in.cacheAll = in.cacheHits + len(tail.fleet)
	}
	for _, s := range in.tail.submits {
		info, err := dt.jobInfo(s.id)
		if rep.t.record("job info", err) && info.StartedNs > 0 {
			in.jobInfos = append(in.jobInfos, jobTimes{
				queue: float64(info.StartedNs-info.CreatedNs) / 1e6,
				run:   float64(info.FinishedNs-info.StartedNs) / 1e6,
			})
		}
	}
	restore()
	restored = true
	in.reqSpans = cl.takeSpans()
	in.simRuns = append(primary, tail.runs...)
	if tail.corpus != nil {
		if r, ok := tail.corpus.check(&rep.t); ok {
			in.simRuns = append(in.simRuns, r)
		}
	}
	var lo, hi int64 = -1, 0
	for _, w := range dt.coord.Status().Workers {
		if lo < 0 || w.CommittedCells < lo {
			lo = w.CommittedCells
		}
		hi = max(hi, w.CommittedCells)
	}
	in.balance = ratio(float64(lo), float64(hi))
	var paths []string
	for _, h := range tail.traceHash {
		p, err := dt.store.Path(h)
		if err != nil {
			return err
		}
		paths = append(paths, filepath.Clean(p))
	}
	if in.iso, err = replayLayers(caps, paths, cfg.z.replayReps); err != nil {
		return err
	}
	rep.metrics = layerMetrics(in)
	rep.info = append(rep.info,
		fmt.Sprintf("info traced primary %.3fs, untraced %.3fs", in.traced.Seconds(), in.untraced.Seconds()),
		fmt.Sprintf("result_sha256 %s %s", cfg.fam.name, resultSHA(primary)))
	return nil
}

// sameOutputs is the traced-run identity: every sweep's JSON bytes equal.
func sameOutputs(a, b []specRun) error {
	if len(a) != len(b) {
		return fmt.Errorf("traced run produced %d sweeps, untraced %d", len(b), len(a))
	}
	for i := range a {
		if string(a[i].out) != string(b[i].out) {
			return fmt.Errorf("sweep %d (%s): traced JSON differs from untraced", i, a[i].spec.Workload)
		}
	}
	return nil
}
