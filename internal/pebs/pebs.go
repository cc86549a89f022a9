// Package pebs defines the record format of sampled memory accesses, as
// delivered by hardware event-based sampling (Intel PEBS / AMD IBS). Real
// PEBS writes, at a configured period, a buffer of records each holding
// the virtual address of a sampled load or store; tiering runtimes drain
// that buffer in batches (Algorithm 1 in the paper). The sampler itself —
// a bounded ring that drops records under overload — lives in
// internal/tracker beside the scanning trackers that share it; this
// package holds only the types that cross package boundaries and appear
// in archived results (Stats is the "pebs" key of a Result's JSON).
package pebs

import "repro/internal/mem"

// Sample is one sampled memory access.
type Sample struct {
	// Page is the accessed virtual page.
	Page mem.PageID
	// Tier is where the access was served from, mirroring PEBS data-source
	// encoding (local DRAM vs CXL), which Memtis-style systems use.
	Tier mem.Tier
	// Time is the virtual time of the access in nanoseconds.
	Time int64
	// Write reports stores (sampled via a separate counter on real HW).
	Write bool
}

// Stats counts tracker activity: accesses observed, samples taken,
// samples dropped on a full ring, and samples drained to the policy.
type Stats struct {
	Accesses uint64 `json:"accesses"`
	Sampled  uint64 `json:"sampled"`
	Dropped  uint64 `json:"dropped"`
	Drained  uint64 `json:"drained"`
}
