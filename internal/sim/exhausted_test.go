package sim

// Coverage for Run's exhausted-source branch: a source that runs dry
// before cfg.Ops is reached yields empty batches, and each one is
// accounted as one empty op (zero latency, clock unchanged). The batched
// fetch schedule must account them exactly like the single-op reference.

import (
	"encoding/json"
	"testing"

	"repro/internal/baselines"
	"repro/internal/trace"
)

// shortSource produces only limit ops, then empty batches forever — the
// shape of a trace replay that ran out of records.
type shortSource struct {
	src   trace.BatchSource
	limit int
	out   int
}

func (s *shortSource) Name() string      { return s.src.Name() }
func (s *shortSource) NumPages() int     { return s.src.NumPages() }
func (s *shortSource) AdvanceTime(int64) {}
func (s *shortSource) NextOp(dst []trace.Access) []trace.Access {
	if s.out >= s.limit {
		return dst[:0]
	}
	s.out++
	return s.src.NextOp(dst)
}
func (s *shortSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	if rem := s.limit - s.out; rem < max {
		max = rem
	}
	if max <= 0 {
		return dst[:0]
	}
	b := s.src.NextBatch(dst, max)
	for i := range b {
		if b[i].EndOp {
			s.out++
		}
	}
	return b
}

func TestExhaustedSourceMatchesSingleOpFetch(t *testing.T) {
	const pages = 1 << 12
	const ops = 50_000 // 20k empty ops past exhaustion
	run := func(batchOps int) []byte {
		w := &shortSource{src: trace.NewZipfSource("short", pages, 1.0, 0.1, 7), limit: 30_000}
		cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), pages/9)
		cfg.Ops = ops
		cfg.BatchOps = batchOps
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != cfg.Ops {
			t.Fatalf("BatchOps %d: Ops = %d, want %d", batchOps, res.Ops, cfg.Ops)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(run(1)) != string(run(0)) {
		t.Fatal("exhausted-source accounting diverges between the single-op and batched fetch schedules")
	}
}
