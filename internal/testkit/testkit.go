// Package testkit is the repo's conformance harness: the machinery that
// proves the DLion reproduction computes the same math everywhere it
// claims to. It provides three gates, all exercised by this package's own
// tests and wired into `make conformance`:
//
//   - Gradcheck (gradcheck.go): every layer's analytic backward pass is
//     validated against central finite differences of the loss.
//   - Cross-mode equivalence (equivalence.go): the same seeded workload is
//     trained once on the discrete-event simulator (internal/cluster) and
//     once over the realtime TCP broker path (internal/realtime). Under
//     ordered apply the final per-variable weight digests must be equal —
//     bit-identical, no tolerance; a workload with a mid-run leave is held
//     to the exact step-exact churn contract instead (CheckChurn).
//   - Lineage replay (replay.go): a seeded segment is checkpointed with a
//     manifest, and Audit re-executes it on either substrate and confirms
//     the published digests bit-exactly.
//
// Every weight comparison uses the digests lineage manifests commit to
// (lineage.VarHashes, lineage.Digests), so a conformance digest and a
// published checkpoint digest are directly comparable. Convergence goldens
// live beside the simulator, as rows of internal/cluster's TestRunGoldens.
package testkit
