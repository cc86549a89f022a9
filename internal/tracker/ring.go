package tracker

import "repro/internal/pebs"

// sampleRing is the bounded sample buffer every tracker drains through,
// with the counters behind Stats. It reproduces the PEBS hardware
// buffer's semantics — bounded capacity, drop-and-count under overload,
// oldest samples kept — so policies see one contract regardless of
// tracker. Trackers embed it, which supplies their ObserveSkipped,
// Pending, Drain, Ring and Stats methods; their Observe adds to accesses.
type sampleRing struct {
	buf      []pebs.Sample
	head     int // next write
	tail     int // next read
	size     int
	accesses uint64
	sampled  uint64
	dropped  uint64
	drained  uint64
}

// checkoutRing returns a buffer of exactly size entries, reusing recycled
// storage when it is large enough. Recycled memory is scrubbed: a pooled
// ring carries another sweep cell's samples, and although the
// head/tail/size protocol never reads an unwritten slot, clearing on
// checkout guarantees a buffer-handling bug can only surface zero
// samples, never another cell's pages.
func checkoutRing(recycled []pebs.Sample, size int) []pebs.Sample {
	if cap(recycled) >= size {
		r := recycled[:size]
		clear(r)
		return r
	}
	return make([]pebs.Sample, size)
}

// take records one sample, dropping (and counting) it when the ring is
// full — drops happen at the producer, as on the hardware.
func (r *sampleRing) take(s pebs.Sample) {
	r.sampled++
	if r.size == len(r.buf) {
		r.dropped++
		return
	}
	r.buf[r.head] = s
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.size++
}

// ObserveSkipped accounts n accesses the caller's hoisted countdown
// observed without reaching the period, keeping Stats().Accesses exact.
func (r *sampleRing) ObserveSkipped(n int) {
	if n > 0 {
		r.accesses += uint64(n)
	}
}

// Pending returns the number of buffered samples.
func (r *sampleRing) Pending() int { return r.size }

// Drain moves up to max buffered samples into dst (appending) and returns
// the extended slice; max <= 0 drains everything.
func (r *sampleRing) Drain(dst []pebs.Sample, max int) []pebs.Sample {
	n := r.size
	if max > 0 && max < n {
		n = max
	}
	// At most two bulk copies: tail→end of ring, then a wrapped remainder.
	first := n
	if avail := len(r.buf) - r.tail; first > avail {
		first = avail
	}
	dst = append(dst, r.buf[r.tail:r.tail+first]...)
	if rest := n - first; rest > 0 {
		dst = append(dst, r.buf[:rest]...)
		r.tail = rest
	} else if r.tail += first; r.tail == len(r.buf) {
		r.tail = 0
	}
	r.size -= n
	r.drained += uint64(n)
	return dst
}

// Ring exposes the backing buffer for reuse pools; the tracker must not
// be used afterwards.
func (r *sampleRing) Ring() []pebs.Sample { return r.buf }

// Stats returns the access/sample/drop/drain counters.
func (r *sampleRing) Stats() pebs.Stats {
	return pebs.Stats{
		Accesses: r.accesses,
		Sampled:  r.sampled,
		Dropped:  r.dropped,
		Drained:  r.drained,
	}
}
