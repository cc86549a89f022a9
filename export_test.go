package hybridtier

// WithBatchOps re-exports the unexported batch-size option to the external
// determinism tests, which compare the single-op fetch schedule against
// the batched default.
var WithBatchOps = withBatchOps
