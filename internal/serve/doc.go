// Package serve is the admission-control daemon behind cmd/mcserved:
// a long-running HTTP/JSON service that answers the paper's
// partitioning question — "can this task set be admitted, and onto
// which cores?" — under concurrent load, on pooled reusable
// partition.Partitioners (one per worker per analysis backend, so the
// steady-state partitioning hot path keeps its 0 allocs/op). The
// pooled Partitioners also carry the online session protocol
// (StartIncremental / Admit / Release), and the two modes interleave
// freely on one instance: every batch entry point re-prepares and
// clears any session state, a property the pooled-reuse regression
// (partition.TestPooledSessionThenBatch) pins bitwise.
//
// Robustness is layered, in request order:
//
//   - Decode. The body is read once and parsed in a single pass into
//     the Request and its task slabs (decode.go); any body outside
//     that fast grammar, a body cut off by MaxBodyBytes included, is
//     replayed through encoding/json, which alone defines the errors
//     and the accepted set. The task set is validated once, by
//     whichever path decoded it, and hashed once (mc.TaskSetHash).
//   - Limits. normalize checks the decoded request against the
//     server's core, task and backend limits and resolves defaults.
//   - Deadlines. A timeout middleware derives every request's work
//     context from r.Context(); the deadline is plumbed through
//     Partitioner evaluation (partition.RunContext), and a deadline
//     that fires mid-batch yields a partial-verdict response carrying
//     the schemes that did complete.
//   - Backpressure. Admission work flows through a fixed-capacity
//     queue; when it is full the daemon answers 429 with Retry-After
//     instead of growing goroutines without bound.
//   - Graceful degradation. Past a queue-depth watermark, requests
//     downgrade from full backend analysis to the probe-only
//     utilization screen (Screen): certified fast rejects and honest
//     "uncertain" verdicts, labeled "degraded": true — never a false
//     admit. Clients that cannot act on a probe-only verdict set
//     "require_full": true to opt out and take queue backpressure
//     instead.
//   - Panic quarantine. A panic while serving one request is
//     recovered, counted in the metrics registry, and answered with
//     500; unrelated in-flight requests and the daemon itself keep
//     going (the runner's per-set quarantine philosophy).
//   - Drain. Shutdown flips /readyz to 503, stops accepting work and
//     drains the queue, so a rolling restart loses nothing.
//
// The Hooks seam exists for the chaos suite only: scripted panics,
// stalls and slow-backend delays (in the spirit of
// internal/runner/faultinject) prove the layers above under -race.
// Nothing in production code installs a hook.
package serve
