// Package tracker abstracts how the tiering runtime observes memory
// accesses. The paper's runtime is written against one facility — a
// PEBS-style subsampled address stream, delivered as internal/pebs
// records — but production tiering daemons (Intel's memtierd in
// cri-resource-manager, kernel tiering) choose among *trackers*: hardware
// event sampling, idle-page bitmap scans, soft-dirty write tracking,
// DAMON-style region sampling. This package defines the pluggable
// Tracker contract the simulator drives, with the PEBS sampler as the
// reference implementation and two memtierd-inspired scanning trackers
// beside it.
//
// All trackers share one drain protocol and one bounded sample ring
// (Algorithm 1): accesses go in through Observe, samples come out in
// batches through Drain, and the ring drops under overload. What
// differs is *when* samples materialize — per access for PEBS, at
// periodic scan boundaries (Sync) for the bitmap trackers — and what
// they can see (soft-dirty observes only writes).
package tracker

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// Tracker kinds. Kind strings appear in sweep specs and qualified policy
// names ("LRU@idlepage"), so they are part of the public API.
const (
	// KindPEBS is hardware event-based sampling (the reference tracker).
	KindPEBS = "pebs"
	// KindIdlepage periodically scans and clears per-page accessed bits,
	// like memtierd's idlepage tracker over /sys/kernel/mm/page_idle.
	KindIdlepage = "idlepage"
	// KindSoftDirty periodically scans and clears per-page write bits,
	// like memtierd's soft-dirty tracker over /proc/pid/clear_refs; reads
	// are invisible to it.
	KindSoftDirty = "softdirty"
)

// Kinds returns the known tracker kinds in sorted order.
func Kinds() []string { return []string{KindIdlepage, KindPEBS, KindSoftDirty} }

// KnownKinds returns the sorted kind list as a single string for error
// messages ("idlepage, pebs, softdirty").
func KnownKinds() string { return strings.Join(Kinds(), ", ") }

// Normalize resolves a kind name: the empty string means the default
// (PEBS) tracker. Unknown names are an error listing the known kinds.
func Normalize(kind string) (string, error) {
	switch kind {
	case "", KindPEBS:
		return KindPEBS, nil
	case KindIdlepage, KindSoftDirty:
		return kind, nil
	}
	return "", fmt.Errorf("tracker: unknown kind %q (known: %s)", kind, KnownKinds())
}

// Config selects and parameterizes a tracker.
type Config struct {
	// Kind is one of the Kind* constants; empty selects KindPEBS.
	Kind string
	// Period is the PEBS sampling period: one sample is taken every Period
	// accesses. Real deployments use periods in the hundreds to thousands
	// to bound overhead; the default mirrors that scaled to simulated
	// footprints. Scanning kinds ignore it (they observe every access).
	Period int
	// BufferSize is the capacity of every kind's sample ring. When the
	// consumer falls behind, new samples are dropped (as the PEBS hardware
	// does), and the drop is counted.
	BufferSize int
	// ScanNs is the scan period of the bitmap trackers in virtual ns.
	// memtierd scans every few hundred ms against real footprints; the
	// default is scaled to the simulator's footprints like the PEBS
	// period is.
	ScanNs int64
	// ScanCostPerPageNs is the tiering-thread cost of scanning one page's
	// bit — the sequential bitmap read that makes idlepage cheap per page
	// but proportional to the whole footprint per scan.
	ScanCostPerPageNs float64
}

// DefaultConfig returns the default tracker setup: PEBS sampling with the
// scanning parameters ready should the kind be switched.
func DefaultConfig() Config {
	return Config{
		Kind:              KindPEBS,
		Period:            13,
		BufferSize:        1 << 16,
		ScanNs:            20_000_000, // 20 virtual ms per full-footprint scan
		ScanCostPerPageNs: 0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	kind, err := Normalize(c.Kind)
	if err != nil {
		return err
	}
	if c.BufferSize <= 0 {
		return fmt.Errorf("tracker: BufferSize must be positive, got %d", c.BufferSize)
	}
	if kind == KindPEBS {
		if c.Period <= 0 {
			return fmt.Errorf("tracker: Period must be positive, got %d", c.Period)
		}
		return nil
	}
	if c.ScanNs <= 0 {
		return fmt.Errorf("tracker: ScanNs must be positive, got %d", c.ScanNs)
	}
	if c.ScanCostPerPageNs < 0 {
		return fmt.Errorf("tracker: ScanCostPerPageNs must be non-negative, got %g", c.ScanCostPerPageNs)
	}
	return nil
}

// Tracker is a pluggable memory-access observer. The simulator feeds it
// every access (subject to the Period countdown it hoists into its own
// loop), gives it a chance to do periodic work at tick boundaries via
// Sync, and drains its sample ring into the policy in batches. Trackers
// are not safe for concurrent use.
type Tracker interface {
	// Kind returns the tracker's kind constant.
	Kind() string
	// Period is the Observe subsampling period: the caller delivers every
	// Period-th access (hoisting the skip countdown into its hot loop) and
	// folds the unfired remainder back via ObserveSkipped. Scanning
	// trackers return 1 — they must see every access to set bits.
	Period() int
	// Observe feeds one (subsampled) access.
	Observe(page mem.PageID, tier mem.Tier, now int64, write bool)
	// ObserveSkipped accounts accesses observed by the caller's hoisted
	// countdown without reaching the period, keeping Stats().Accesses
	// exact.
	ObserveSkipped(n int)
	// Sync runs periodic tracker work (bitmap scans) as of the given
	// virtual time and returns the tiering-thread cost in ns incurred now
	// (0 when no scan fired). The caller invokes it at every policy tick.
	Sync(now int64) float64
	// Pending returns the number of buffered samples.
	Pending() int
	// Drain moves up to max buffered samples into dst (appending) and
	// returns the extended slice; max <= 0 drains everything.
	Drain(dst []pebs.Sample, max int) []pebs.Sample
	// Ring exposes the tracker's backing sample buffer for reuse pools;
	// the tracker must not be used afterwards.
	Ring() []pebs.Sample
	// Stats returns the access/sample/drop/drain counters.
	Stats() pebs.Stats
}

// New builds the configured tracker. numPages sizes the scanning
// trackers' bitmaps (at the simulation's tracking granularity, so huge
// pages shrink them 512×); ring, when non-nil, recycles a sample buffer
// from a previous run. The recycled buffer is scrubbed before use — a
// pooled ring carries another cell's samples, and stale entries must not
// be able to reach a policy even through a tracker bug (see
// checkoutRing).
func New(cfg Config, numPages int, ring []pebs.Sample) (Tracker, error) {
	kind, err := Normalize(cfg.Kind)
	if err != nil {
		return nil, err
	}
	norm := cfg
	norm.Kind = kind
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindPEBS:
		return &pebsTracker{
			sampleRing: sampleRing{buf: checkoutRing(ring, norm.BufferSize)},
			period:     norm.Period,
		}, nil
	case KindIdlepage:
		return newIdlepage(norm, numPages, ring), nil
	case KindSoftDirty:
		return newSoftDirty(norm, numPages, ring), nil
	}
	panic("unreachable: Normalize admitted kind " + kind)
}
