package main

// Tracing decorators for the per-layer run. They hook in at the program's
// public seams only: traced copies of the policy and workload registries,
// a wrapped jobs.Runner, and a wrapped fabric.Transport. Nothing inside
// the program is instrumented, so a traced run executes the same code
// paths as an untraced one — provided every decorator forwards exactly
// the optional interfaces the simulator and sweep engine type-assert.
// That contract is checked by traced_test.go.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/trace"
)

// perAccessEvery is how often a per-access-rate boundary (a leaf source's
// NextOp, a policy's OnFault) is timed: one call in perAccessEvery, scaled
// up. A clock read pair costs ~125 ns on the reference VM, as much as
// generating one op, so timing every such call would distort what it
// measures. Per-batch boundaries (NextBatch, OnSamples, Tick) are timed on
// every call.
const perAccessEvery = 32

// boundary aggregates the calls into one layer boundary of one instance.
type boundary struct {
	calls atomic.Int64
	timed atomic.Int64
	ns    atomic.Int64
}

// time runs fn, timing it when every is 1 or the call is the every-th.
func (b *boundary) time(every int64, fn func()) {
	n := b.calls.Add(1)
	if every > 1 && n%every != 0 {
		fn()
		return
	}
	start := time.Now()
	fn()
	b.ns.Add(int64(time.Since(start)))
	b.timed.Add(1)
}

// estNs estimates the boundary's total time: timed ns scaled to all calls.
func (b *boundary) estNs() float64 {
	t := b.timed.Load()
	if t == 0 {
		return 0
	}
	return float64(b.ns.Load()) * float64(b.calls.Load()) / float64(t)
}

// srcStats is one workload instance's fetch ledger.
type srcStats struct {
	nextOp    boundary
	nextBatch boundary
	accesses  atomic.Int64
	advances  atomic.Int64
}

// streamBuilder reports whether the instance only ever fed a sweep's
// shared stream: the simulator notifies every source it runs of the
// clock, and the shared-stream builder drains its source without one.
func (s *srcStats) streamBuilder() bool { return s.advances.Load() == 0 }

// polStats is one policy instance's callback ledger. One instance lives
// for exactly one cell, so its first and last calls bound the cell's
// sim.Run: Attach comes right after memory and tracker set-up, and
// MetadataBytes is read while the Result is assembled.
type polStats struct {
	onSamples boundary
	samples   atomic.Int64
	tick      boundary
	onFault   boundary
	start     atomic.Int64 // unix ns of Attach
	end       atomic.Int64 // unix ns of the last MetadataBytes
}

// ledger collects every traced instance of one traced phase, plus the
// spans recorded around daemon requests, jobs, RPCs and worker cells.
type ledger struct {
	mu      sync.Mutex
	sources []*srcStats
	pols    []*polStats
	spans   []span
}

// span is one timed interval at cell, request, job or RPC granularity.
// Spans of one job share id (the spec hash) where the seam can see it.
type span struct {
	name       string
	id         string
	start, end time.Time
	status     int
	err        bool
}

func (l *ledger) addSpan(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *ledger) newSource() *srcStats {
	s := new(srcStats)
	l.mu.Lock()
	l.sources = append(l.sources, s)
	l.mu.Unlock()
	return s
}

func (l *ledger) newPolicy() *polStats {
	p := new(polStats)
	l.mu.Lock()
	l.pols = append(l.pols, p)
	l.mu.Unlock()
	return p
}

// snapshot returns the instance and span lists recorded so far.
func (l *ledger) snapshot() ([]*srcStats, []*polStats, []span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*srcStats(nil), l.sources...), append([]*polStats(nil), l.pols...), append([]span(nil), l.spans...)
}

// Interface bits: the optional interfaces the simulator (sim.Run), the
// sweep engine (Sweep.sharedStream) and experiment set-up type-assert.
const (
	ifBatch = 1 << iota
	ifPacked
	ifClockFree
	ifShift
	ifCloser
	ifErr
	ifRecencyFree
	ifFaultDriven
	ifFaultBitmapped
)

// sourceIfaces returns the optional-interface set of a workload instance.
func sourceIfaces(s trace.Source) int {
	set := 0
	if _, ok := s.(trace.BatchSource); ok {
		set |= ifBatch
	}
	if _, ok := s.(trace.PackedViewSource); ok {
		set |= ifPacked
	}
	if _, ok := s.(trace.ClockFree); ok {
		set |= ifClockFree
	}
	if _, ok := s.(trace.ShiftSource); ok {
		set |= ifShift
	}
	if _, ok := s.(io.Closer); ok {
		set |= ifCloser
	}
	if _, ok := s.(interface{ Err() error }); ok {
		set |= ifErr
	}
	return set
}

// policyIfaces returns the optional-interface set of a policy instance.
func policyIfaces(p tier.Policy) int {
	set := 0
	if _, ok := p.(tier.RecencyFree); ok {
		set |= ifRecencyFree
	}
	if _, ok := p.(tier.FaultDriven); ok {
		set |= ifFaultDriven
	}
	if _, ok := p.(tier.FaultBitmapped); ok {
		set |= ifFaultBitmapped
	}
	return set
}

// tracedSource times a workload's fetch boundaries.
type tracedSource struct {
	inner trace.Source
	st    *srcStats
}

func (t *tracedSource) Name() string  { return t.inner.Name() }
func (t *tracedSource) NumPages() int { return t.inner.NumPages() }
func (t *tracedSource) AdvanceTime(now int64) {
	t.st.advances.Add(1)
	t.inner.AdvanceTime(now)
}
func (t *tracedSource) NextOp(dst []trace.Access) []trace.Access {
	n := len(dst)
	t.st.nextOp.time(perAccessEvery, func() { dst = t.inner.NextOp(dst) })
	t.st.accesses.Add(int64(len(dst) - n))
	return dst
}

type tracedBatch struct {
	*tracedSource
	bs trace.BatchSource
}

func (t tracedBatch) NextBatch(dst []trace.Access, max int) []trace.Access {
	n := len(dst)
	t.st.nextBatch.time(1, func() { dst = t.bs.NextBatch(dst, max) })
	t.st.accesses.Add(int64(len(dst) - n))
	return dst
}

type tracedBatchClock struct {
	tracedBatch
	cf trace.ClockFree
}

func (t tracedBatchClock) ClockFree() bool { return t.cf.ClockFree() }

type tracedBatchClockShift struct {
	tracedBatchClock
	ss trace.ShiftSource
}

func (t tracedBatchClockShift) ShiftTime() int64 { return t.ss.ShiftTime() }

// wrapSource decorates s, or fails for an interface set no decorator
// reproduces exactly: tracing it would run a different program.
func wrapSource(s trace.Source, st *srcStats) (trace.Source, error) {
	base := &tracedSource{inner: s, st: st}
	switch set := sourceIfaces(s); set {
	case 0:
		return base, nil
	case ifBatch:
		return tracedBatch{base, s.(trace.BatchSource)}, nil
	case ifBatch | ifClockFree:
		return tracedBatchClock{tracedBatch{base, s.(trace.BatchSource)}, s.(trace.ClockFree)}, nil
	case ifBatch | ifClockFree | ifShift:
		return tracedBatchClockShift{
			tracedBatchClock{tracedBatch{base, s.(trace.BatchSource)}, s.(trace.ClockFree)},
			s.(trace.ShiftSource)}, nil
	default:
		return nil, fmt.Errorf("benchmark: workload %s has interface set %#x, which no traced decorator forwards exactly", s.Name(), set)
	}
}

// tracedPolicy times a policy's callbacks.
type tracedPolicy struct {
	inner tier.Policy
	st    *polStats
}

func (t *tracedPolicy) Name() string { return t.inner.Name() }
func (t *tracedPolicy) Attach(env tier.Env) {
	t.st.start.Store(time.Now().UnixNano())
	t.inner.Attach(env)
}
func (t *tracedPolicy) OnSamples(batch []tier.Sample) {
	t.st.samples.Add(int64(len(batch)))
	t.st.onSamples.time(1, func() { t.inner.OnSamples(batch) })
}
func (t *tracedPolicy) Tick() { t.st.tick.time(1, t.inner.Tick) }
func (t *tracedPolicy) MetadataBytes() int64 {
	b := t.inner.MetadataBytes()
	t.st.end.Store(time.Now().UnixNano())
	return b
}

type tracedRecency struct{ *tracedPolicy }

func (tracedRecency) RecencyFree() {}

type tracedFault struct {
	*tracedPolicy
	fd tier.FaultDriven
}

func (t tracedFault) WantsFault(p mem.PageID) bool { return t.fd.WantsFault(p) }
func (t tracedFault) OnFault(p mem.PageID, tr mem.Tier) {
	t.st.onFault.time(perAccessEvery, func() { t.fd.OnFault(p, tr) })
}

type tracedFaultBitmapped struct {
	tracedFault
	fb tier.FaultBitmapped
}

func (t tracedFaultBitmapped) FaultBitmap() []uint64 { return t.fb.FaultBitmap() }

// wrapPolicy decorates p, or fails for an interface set no decorator
// reproduces exactly.
func wrapPolicy(p tier.Policy, st *polStats) (tier.Policy, error) {
	base := &tracedPolicy{inner: p, st: st}
	switch set := policyIfaces(p); set {
	case 0:
		return base, nil
	case ifRecencyFree:
		return tracedRecency{base}, nil
	case ifFaultDriven:
		return tracedFault{base, p.(tier.FaultDriven)}, nil
	case ifFaultDriven | ifFaultBitmapped:
		return tracedFaultBitmapped{tracedFault{base, p.(tier.FaultDriven)}, p.(tier.FaultBitmapped)}, nil
	default:
		return nil, fmt.Errorf("benchmark: policy %s has interface set %#x, which no traced decorator forwards exactly", p.Name(), set)
	}
}

// tracedRegistries copies the process registries with every factory
// decorated to record into l.
func tracedRegistries(l *ledger) (*registry.PolicyRegistry, *registry.WorkloadRegistry) {
	pols := registry.NewPolicyRegistry()
	for _, name := range registry.Policies.Names() {
		e, _ := registry.Policies.Lookup(name)
		inner := e.New
		e.New = func(numPages, fastPages int, huge bool) (tier.Policy, mem.AllocMode, error) {
			p, mode, err := inner(numPages, fastPages, huge)
			if err != nil {
				return nil, mode, err
			}
			tp, err := wrapPolicy(p, l.newPolicy())
			return tp, mode, err
		}
		pols.MustRegister(e)
	}
	wls := registry.NewWorkloadRegistry()
	for _, name := range registry.Workloads.Names() {
		e, _ := registry.Workloads.Lookup(name)
		inner := e.New
		e.New = func(p registry.WorkloadParams) (trace.Source, error) {
			s, err := inner(p)
			if err != nil {
				return nil, err
			}
			return wrapSource(s, l.newSource())
		}
		wls.MustRegister(e)
	}
	return pols, wls
}

// installTracing swaps the traced registries in and returns the undo. It
// must run while no sweep or daemon request is resolving names.
func installTracing(l *ledger) (restore func()) {
	origP, origW := registry.Policies, registry.Workloads
	registry.Policies, registry.Workloads = tracedRegistries(l)
	return func() { registry.Policies, registry.Workloads = origP, origW }
}

// tracedRunner wraps a jobs.Runner in spans named name, keyed by the
// canonical spec's content address.
func tracedRunner(l *ledger, name string, run jobs.Runner) jobs.Runner {
	return func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
		start := time.Now()
		out, err := run(ctx, spec, progress)
		l.addSpan(span{name: name, id: specHash(spec), start: start, end: time.Now(), err: err != nil})
		return out, err
	}
}

// tracedTransport wraps the coordinator's fabric transport: every
// coordinator→worker message is one RoundTrip, so shard RPCs, probes and
// their failures are all visible here.
type tracedTransport struct {
	l     *ledger
	inner http.RoundTripper
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(r)
	s := span{name: "rpc " + r.Method + " " + routeOf(r.URL.Path), start: start, end: time.Now(), err: err != nil}
	if resp != nil {
		s.status = resp.StatusCode
		s.err = s.err || resp.StatusCode >= 500
	}
	t.l.addSpan(s)
	return resp, err
}
