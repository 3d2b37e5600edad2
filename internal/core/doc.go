// Package core implements S3CA — the Seed Selection and Social Coupon
// allocation Algorithm (Section IV of the paper) — for the S3CRM problem:
// choose a seed set S, internal nodes I and coupon allocation K(I)
// maximizing the redemption rate B(S,K)/(Cseed(S)+Csc(K)) under the budget
// Cseed(S)+Csc(K) <= Binv.
//
// # Phases
//
// S3CA runs three phases:
//
//  1. Investment Deployment (ID) — build the pivot-source queue from every
//     user's standalone marginal redemption, then iteratively invest either
//     one SC in the user with the best marginal redemption (broadening or
//     deepening the spread) or a new seed (the pivot source), keeping the
//     intermediate deployment with the best redemption rate. The coupon
//     candidate is chosen CELF-lazily from a max-heap of cached marginal
//     gains; the exhaustive per-iteration sweep is the package tests'
//     oracle.
//  2. Guaranteed Path Identification (GPI) — per seed, a depth-first
//     traversal in descending influence-probability order that enumerates
//     budget-feasible "guaranteed paths": allocations in which every visited
//     edge is independent, so inactive high-benefit users could be reached
//     at full probability. Each visit updates per-level cost, benefit and
//     dependent-edge sums, so a path is priced in O(1) plus its parent's
//     redeem-probability row update rather than by a sweep of the visited
//     set; Options.GPILimit optionally caps the visits per seed.
//  3. SC Maneuver (SCM) — rank guaranteed paths by amelioration index,
//     retrieve coupons from low-deterioration-index donors and move them
//     onto the paths whenever the maneuver gap test passes and the overall
//     redemption rate improves.
//
// # Scale
//
// Only the pivot phase is inherently O(|V| + |E|); it shards across workers
// by contiguous node ranges (users are standalone there, so the sharded
// scan is exactly the sequential one). Every later phase's cost follows the
// budget-bounded spread, not the graph: the ID loop's candidate pool is the
// influenced set, the world-cache engine's delta queries replay only
// affected worlds, and GPI/SCM walk budget-feasible paths — which is what
// lets one configuration serve 200-node worked examples and million-node
// small worlds (EXPERIMENTS.md, "Large-graph scaling").
//
// Where the paper's pseudocode is ambiguous the implementation follows the
// prose and worked examples; every such decision is recorded in DESIGN.md
// ("Fidelity notes").
package core
