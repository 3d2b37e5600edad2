// Package diffusion implements the paper's propagation model and its
// estimators — the evaluation engines every solver phase, baseline and the
// public Campaign API score deployments through.
//
// # Model
//
// The model extends a triggering model — independent cascade (ModelIC, the
// paper's setting and the default) or linear threshold (ModelLT, via its
// live-edge equivalence; see Models) — with a social-coupon (SC)
// constraint: influence starts from the seed set; every activated user
// vi holding K[vi] coupons offers them to out-neighbours in descending
// order of influence probability, and at most K[vi] neighbours redeem. A
// neighbour at adjacency position j (0-based) therefore redeems with
// probability P(e(i,j)) when j < K[vi] (an "independent" edge) and with
// probability P(e(i,j))·P(k̄i) when j >= K[vi] (a "dependent" edge), where
// P(k̄i) is the probability that fewer than K[vi] earlier neighbours
// redeemed. A user activates at most once; an already-active neighbour is
// skipped without consuming a coupon.
//
// Three quantities drive the S3CRM objective:
//
//   - B(S, K): expected total benefit of activated users — estimated by
//     Monte-Carlo sampling (Estimator) or computed exactly on forests
//     (ExactTreeBenefit);
//   - Cseed(S): the modular seed cost;
//   - Csc(K): the paper's closed-form expected SC cost, summing
//     E[ki, csc(vj)] over every allocated node's neighbours regardless of
//     the allocator's own activation probability (see DESIGN.md, fidelity
//     note 1 — this matches the paper's worked examples exactly).
//
// # Engines and substrates
//
// Evaluator is the seam: EngineMC (Estimator — every evaluation simulates
// all possible worlds from scratch), EngineWorldCache (WorldCache —
// per-world snapshots answer the greedy loops' delta queries by replaying
// only the affected worlds and frontiers) and EngineSSR (MC evaluation of
// the deployment the SSR sketch solver in internal/core selects).
// Edge liveness comes from a stateless hash — of (seed, world, edge) under
// ModelIC, of (seed, world, target node) walked down the in-row under
// ModelLT — giving common random numbers, so every deployment sees
// identical worlds. One substrate owns that decision (LiveEdges): every
// estimator probes through it, and it materializes each world's liveness
// into the model's row layout within a memory budget, hashing per probe
// past it, with identical outcomes.
//
// Worlds are swept by one kernel, the 64-world block kernel
// (Estimator.simBlock), which iterates the graph's CSR rows directly — a
// row's global base offset doubles as the coin-flip edge identity — and is
// shared by every engine, which is what keeps their reported metrics
// bit-identical. A world re-simulated alone runs as a one-bit block; the
// scalar one-world kernel lives in the tests as the reference the block
// kernel reproduces world for world. Every full sweep (Estimator.Evaluate,
// the world cache's full rebase) shards across workers by contiguous,
// block-aligned world ranges, writes each world's aggregates into its own
// slot and folds the slots in ascending world order, so parallel
// evaluation equals sequential exactly. Graph construction, by contrast,
// shards by contiguous node ranges (see internal/graph). Both axes are
// documented in DESIGN.md, "Graph substrate".
package diffusion
