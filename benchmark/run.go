package main

// The phases of one benchmark run: set-up, the workload's primary phase,
// and the service tail every workload ends with.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	hybridtier "repro"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// tally counts operations attempted and failed. A failed correctness
// check is a failed operation.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, what+": "+err.Error())
		}
		return false
	}
	return true
}

// specRun is one sweep spec executed and marshaled.
type specRun struct {
	group     string
	spec      hybridtier.SweepSpec
	canonical []byte
	hash      string
	out       []byte
	cells     []hybridtier.CellResult
	latency   time.Duration
}

func (r specRun) ops() int64 { return r.spec.Ops * int64(len(r.cells)) }

func specHash(canonical []byte) string { return hybridtier.HashCanonicalJSON(canonical) }

// runInProcess runs spec through Sweep.Run and marshals the cells exactly
// as the daemon's runner does: the single-process reference output.
func runInProcess(ns namedSpec) (specRun, error) {
	r := specRun{group: ns.group, spec: ns.spec}
	c, err := ns.spec.CanonicalJSON()
	if err != nil {
		return r, err
	}
	r.canonical, r.hash = c, specHash(c)
	sw, err := ns.spec.Sweep()
	if err != nil {
		return r, err
	}
	sw.Workers = simWorkers()
	start := time.Now()
	cells, err := sw.Run(context.Background())
	if err != nil {
		return r, err
	}
	out, err := json.Marshal(cells)
	r.latency = time.Since(start)
	if err != nil {
		return r, err
	}
	r.out, r.cells = out, cells
	return r, checkCells(cells, ns.spec.Ops)
}

// checkCells is the per-cell identity: error-free, and ran the ops asked.
func checkCells(cells []hybridtier.CellResult, ops int64) error {
	if len(cells) == 0 {
		return errors.New("sweep returned no cells")
	}
	for _, c := range cells {
		if c.Err != "" {
			return fmt.Errorf("cell %d (%s 1:%d seed %d): %s", c.Index, c.Policy, c.Ratio, c.Seed, c.Err)
		}
		if c.Result == nil || c.Result.Ops != ops {
			return fmt.Errorf("cell %d ran %v ops, want %d", c.Index, c.Result, ops)
		}
	}
	return nil
}

// servedRun parses bytes the daemon served and checks them against the
// in-process reference for the same canonical spec.
func servedRun(spec hybridtier.SweepSpec, served []byte, ref specRun) (specRun, error) {
	r := ref
	r.out, r.cells = served, nil
	if err := json.Unmarshal(served, &r.cells); err != nil {
		return r, fmt.Errorf("served result: %w", err)
	}
	if err := checkCells(r.cells, spec.Ops); err != nil {
		return r, err
	}
	if !bytes.Equal(served, ref.out) {
		return r, errors.New("served bytes differ from the in-process Sweep.Run marshal")
	}
	return r, nil
}

// setUp does everything a run does before its first timed op — brings
// the daemon and its fleet up and generates the workload's captured
// streams — reps times, closing all but the last daemon, and returns the
// last set-up with the median set-up time.
func setUp(cfg runConfig, cl *client) (*daemon, []capturedStream, float64, error) {
	var times []float64
	var d *daemon
	var caps []capturedStream
	for i := 0; i < cfg.z.setupReps; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg.root, nil, cl); err != nil {
			return nil, nil, 0, err
		}
		if caps, err = buildCaptures(cfg.fam, cfg.seed, cfg.z); err != nil {
			d.close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, caps, median(times), nil
}

// capturedStream is one workload stream, captured for the isolated
// replays and serialized as a v2 trace for the upload.
type capturedStream struct {
	rs    *trace.ReplaySource
	bytes []byte
}

// buildCaptures generates each capture through the registry. It must run
// with the plain registries installed, so that capture generation is
// never counted as a traced layer.
func buildCaptures(fam family, seed uint64, z sizes) ([]capturedStream, error) {
	var out []capturedStream
	for i, wl := range fam.captures {
		s := deriveSeed(seed, 11, uint64(i))
		src, err := registry.Workloads.New(wl, experiments.Quick.Params(s))
		if err != nil {
			return nil, err
		}
		rs := trace.NewReplaySource(src, z.captureOps, 1<<26, nil)
		if rs == nil {
			return nil, fmt.Errorf("benchmark: capture of %s failed", wl)
		}
		var buf bytes.Buffer
		w, err := tracefile.NewWriterV2(&buf, tracefile.Meta{Name: rs.Name(), NumPages: rs.NumPages(), Seed: s})
		if err != nil {
			return nil, err
		}
		r := rs.Fork()
		var acc []trace.Access
		for op := int64(0); op < rs.Ops(); op++ {
			acc = r.NextOp(acc[:0])
			if err := w.WriteOp(acc); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		out = append(out, capturedStream{rs: rs, bytes: buf.Bytes()})
	}
	return out, nil
}

// simPassOut is one pass of a sim workload.
type simPassOut struct {
	runs []specRun
	wall time.Duration // the sweeps' summed times
}

// simPass runs one pass in-process. Each sweep starts from a collected
// heap, as a sweep run by its own htiersim invocation would, so one
// sweep's garbage does not bill the next.
func simPass(specs []namedSpec, t *tally) simPassOut {
	var p simPassOut
	for _, ns := range specs {
		runtime.GC()
		r, err := runInProcess(ns)
		if t.record("sweep "+ns.spec.Workload, err) {
			p.runs = append(p.runs, r)
			p.wall += r.latency
		}
	}
	return p
}

func (p simPassOut) ops() int64 {
	var n int64
	for _, r := range p.runs {
		n += r.ops()
	}
	return n
}

// tailOut is what the service tail measured.
type tailOut struct {
	hits       int // cache hits served, 200 and 304
	fleet      []float64
	resume     []float64
	resumeOpen []float64
	rerun      int
	uploadLat  []time.Duration
	traceHash  []string
	runs       []specRun   // cells the tail simulated: fleet sweeps, resumed cells
	submits    []submitted // its submits, for request self time
	corpus     *pendingCheck
}

// pendingCheck is a served result whose in-process reference runs later:
// a traced run checks it after the traced registries are removed, so the
// reference never counts as traced work.
type pendingCheck struct {
	spec   hybridtier.SweepSpec
	served []byte
}

// check runs the reference and returns the served run.
func (p *pendingCheck) check(t *tally) (specRun, bool) {
	ref, err := runInProcess(namedSpec{"corpus", p.spec})
	var r specRun
	if err == nil {
		r, err = servedRun(p.spec, p.served, ref)
	}
	return r, t.record("corpus replay = in-process", err)
}

// fleetRefs runs the fleet specs of a workload in-process: the references
// the fleet's and the resumes' outputs must equal.
func fleetRefs(fam family, seed uint64, z sizes, t *tally) []specRun {
	var refs []specRun
	for k := 0; k < z.fleetReps; k++ {
		ref, err := runInProcess(namedSpec{"fleet", fam.fleet(deriveSeed(seed, 7, uint64(k)), z)})
		if t.record("fleet reference", err) {
			refs = append(refs, ref)
		}
	}
	return refs
}

// serviceTail is the part every workload ends with: cache-hit fetches of
// its already-computed results (sim workloads; the daemon's loop makes
// its own), fleet sweeps of its fleet specs (refs, computed beforehand),
// trace uploads of its captured streams (the daemon workload also sweeps
// one as corpus:<hash>), and resumes from a journal.
func serviceTail(d *daemon, fam family, z sizes, computed, refs []specRun, caps []capturedStream, root string, l *ledger, t *tally) tailOut {
	var o tailOut
	// Cache hits (sim workloads): the results are stored as the Manager
	// stores a finished job — bytes under the spec's content address —
	// and fetched in bursts between the tail's sweeps and resumes.
	// Loopback latency here switches between regimes that last tens of
	// milliseconds, so hits spread over the tail sample many of them, not
	// one.
	var hitBurst func()
	if len(computed) > 0 {
		for _, r := range computed {
			t.record("cache put", d.cache.Put(r.hash, r.out, r.canonical))
		}
		// The largest group of similar results (fig10's twelve-cell sweeps,
		// tracker-scan's six-cell sweeps), each fetched and then
		// revalidated, so the latencies have the same make-up whatever
		// the seed.
		group := largestGroup(computed)
		bursts := max(1, 2*len(refs))
		next := 0
		hitBurst = func() {
			for i := 0; i < z.hits/(2*bursts); i++ {
				r := group[next%len(group)]
				next++
				tag, err := d.hit(r.hash, r.out, "")
				if !t.record("cache hit", err) {
					continue
				}
				o.hits++
				if _, err := d.hit(r.hash, r.out, tag); t.record("revalidation", err) {
					o.hits++
				}
			}
		}
	}
	settle()
	for _, ref := range refs {
		sub, err := d.submit(ref.spec)
		if err == nil {
			var r specRun
			r, err = servedRun(ref.spec, sub.result, ref)
			o.runs = append(o.runs, r)
			o.submits = append(o.submits, sub)
		}
		if t.record("fleet sweep", err) {
			o.fleet = append(o.fleet, sub.latency.Seconds())
		}
		if hitBurst != nil {
			hitBurst()
		}
	}
	for _, c := range caps {
		hash, lat, err := d.upload(c.bytes)
		if t.record("trace upload", err) {
			o.uploadLat = append(o.uploadLat, lat)
			o.traceHash = append(o.traceHash, hash)
		}
	}
	if fam.name == "daemon" && len(o.traceHash) > 0 {
		spec := hybridtier.SweepSpec{
			Workload: registry.CorpusScheme + o.traceHash[0], Policies: policyNames("HybridTier", "Memtis"),
			Ratios: []int{16, 4}, Ops: z.captureOps,
		}
		sub, err := d.submit(spec)
		if t.record("corpus replay sweep", err) {
			o.corpus = &pendingCheck{spec: spec, served: sub.result}
			o.submits = append(o.submits, sub)
		}
	}
	settle()
	for _, ref := range refs {
		total, open, rerun, err := resumeOnce(root, ref, l)
		if t.record("journal resume", err) {
			// Only the uncached half of the cells was simulated again.
			rerunCells := ref
			rerunCells.cells = ref.cells[len(ref.cells)-rerun:]
			o.runs = append(o.runs, rerunCells)
			o.resume = append(o.resume, total.Seconds())
			o.resumeOpen = append(o.resumeOpen, open.Seconds()*1e3)
			o.rerun += rerun
		}
		if hitBurst != nil {
			hitBurst()
		}
	}
	return o
}

// settle starts a timed phase from a collected heap and a clean page
// cache, so it pays neither for the previous phase's garbage nor for the
// writeback of its files (an ext4 fsync can wait on unrelated dirty data).
func settle() {
	runtime.GC()
	syscall.Sync()
}

// resumeOnce builds the state a SIGKILL mid-sweep leaves behind — a
// submit and a start record in the journal, the first half of the
// spec's cells in the disk cache — then reopens it as a restarted daemon
// does and times journal reopen → resumed job served. The served bytes
// must equal the uninterrupted in-process output.
func resumeOnce(root string, ref specRun, l *ledger) (total, open time.Duration, rerun int, err error) {
	dir, err := os.MkdirTemp(root, "resume-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	cache, err := jobs.NewCache(64<<20, dir)
	if err != nil {
		return 0, 0, 0, err
	}
	_, plans, err := hybridtier.CellPlans(ref.canonical)
	if err != nil {
		return 0, 0, 0, err
	}
	half := len(plans) / 2
	for i := 0; i < half; i++ {
		single, err := hybridtier.MarshalSingletonCell(ref.cells[i])
		if err != nil {
			return 0, 0, 0, err
		}
		if err := cache.Put(plans[i].Hash, single, plans[i].Spec); err != nil {
			return 0, 0, 0, err
		}
	}
	jpath := filepath.Join(dir, "journal.wal")
	j, _, err := jobs.OpenJournal(jpath, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	err = errors.Join(
		j.Append(jobs.Record{Type: "submit", Hash: ref.hash, Spec: ref.canonical}),
		j.Append(jobs.Record{Type: "start", Hash: ref.hash}),
		j.Close())
	if err != nil {
		return 0, 0, 0, err
	}

	start := time.Now()
	j2, records, err := jobs.OpenJournal(jpath, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer j2.Close()
	cache2, err := jobs.NewCache(64<<20, dir)
	if err != nil {
		return 0, 0, 0, err
	}
	run := service.CellRunner(simWorkers(), cache2)
	if l != nil {
		run = tracedRunner(l, "resume.run", run)
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, Run: run, Cache: cache2, Journal: j2, Resume: records})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		m.Drain(ctx)
		cancel()
	}()
	open = time.Since(start)
	var job *jobs.Job
	for _, info := range m.Jobs() {
		if info.Hash == ref.hash {
			job, _ = m.Get(info.ID)
		}
	}
	if job == nil {
		return 0, 0, 0, errors.New("resumed manager lost the job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for from := 0; ; {
		evs, terminal, err := job.Next(ctx, from)
		if err != nil {
			return 0, 0, 0, err
		}
		from += len(evs)
		if terminal {
			break
		}
	}
	rec := httptest.NewRecorder()
	service.NewHandler(service.Config{Manager: m}).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/results/"+ref.hash, nil))
	total = time.Since(start)
	if rec.Code != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("resumed result: status %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), ref.out) {
		return 0, 0, 0, errors.New("resumed output differs from the uninterrupted output")
	}
	for _, p := range plans {
		if _, ok := cache2.GetLocal(p.Hash); !ok {
			return 0, 0, 0, errors.New("resume left a cell uncached")
		}
	}
	return total, open, len(plans) - half, nil
}

// coldResult is one cold daemon submit kept for hits and checks.
type coldResult struct {
	spec hybridtier.SweepSpec
	sub  submitted
}

// loopOut is what the daemon's closed loop measured.
type loopOut struct {
	submitLat []time.Duration
	hits      int // cache hits served, 200 and 304
	cold      []coldResult
	resubmits int
	ops       int64
	wall      time.Duration
}

// daemonLoop is one client in a closed loop: each iteration submits a
// cold spec on a fresh seed, streams its events, fetches the result, then
// resubmits one already-computed spec and fetches four already-computed
// results, each followed by an If-None-Match revalidation. It stops after
// iters iterations, or once budget has passed when iters is 0.
func daemonLoop(d *daemon, seed uint64, z sizes, iters int, budget time.Duration, t *tally) loopOut {
	var o loopOut
	rng := rand.New(rand.NewPCG(seed, 9))
	runtime.GC()
	start := time.Now()
	for i := 0; ; i++ {
		if iters > 0 && i >= iters || iters == 0 && i > 0 && time.Since(start) >= budget {
			break
		}
		spec := daemonCold(deriveSeed(seed, 3, uint64(i)), z)
		sub, err := d.submit(spec)
		if err == nil && sub.cacheHit {
			err = errors.New("cold submit was a cache hit")
		}
		if err == nil {
			var cells []hybridtier.CellResult
			if err = json.Unmarshal(sub.result, &cells); err == nil {
				err = checkCells(cells, spec.Ops)
			}
		}
		if !t.record("cold submit", err) {
			continue
		}
		o.submitLat = append(o.submitLat, sub.latency)
		o.ops += spec.Ops * int64(len(spec.Policies)*len(spec.Ratios))
		o.cold = append(o.cold, coldResult{spec: spec, sub: sub})

		old := o.cold[rng.IntN(len(o.cold))]
		body, _ := json.Marshal(old.spec)
		status, data, _, err := d.client.do(http.MethodPost, d.front.url+"/jobs", body, nil)
		if err == nil {
			var info jobs.Info
			if status != http.StatusOK || json.Unmarshal(data, &info) != nil || !info.CacheHit || info.State != jobs.Done {
				err = fmt.Errorf("resubmit: status %d, %s", status, bytes.TrimSpace(data))
			}
		}
		if t.record("resubmit", err) {
			o.resubmits++
		}
		for h := 0; h < 4; h++ {
			c := o.cold[rng.IntN(len(o.cold))]
			tag, err := d.hit(c.sub.hash, c.sub.result, "")
			if !t.record("cache hit", err) {
				continue
			}
			o.hits++
			if _, err := d.hit(c.sub.hash, c.sub.result, tag); t.record("revalidation", err) {
				o.hits++
			}
		}
	}
	o.wall = time.Since(start)
	return o
}

// checkCold re-runs the first n cold specs in-process: the bytes the
// daemon served must equal Sweep.Run's marshal of the same spec.
func checkCold(cold []coldResult, n int, t *tally) []specRun {
	var out []specRun
	for i := 0; i < n && i < len(cold); i++ {
		ref, err := runInProcess(namedSpec{"cold", cold[i].spec})
		if err == nil {
			var r specRun
			r, err = servedRun(cold[i].spec, cold[i].sub.result, ref)
			out = append(out, r)
		}
		t.record("served = in-process", err)
	}
	return out
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// memDelta measures Go allocation and GC activity over a phase.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := new(memDelta)
	runtime.ReadMemStats(&m.start)
	return m
}

func (m *memDelta) stop() (allocBytes uint64, gcs uint32) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return end.TotalAlloc - m.start.TotalAlloc, end.NumGC - m.start.NumGC
}

// largestGroup returns the runs of the group with the most runs.
func largestGroup(runs []specRun) []specRun {
	byGroup := map[string][]specRun{}
	best := ""
	for _, r := range runs {
		byGroup[r.group] = append(byGroup[r.group], r)
		if len(byGroup[r.group]) > len(byGroup[best]) {
			best = r.group
		}
	}
	return byGroup[best]
}
