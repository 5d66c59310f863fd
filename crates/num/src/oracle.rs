//! The NUM **Oracle**: ground-truth optimal allocations.
//!
//! The paper's evaluation compares every transport against "a numerical fluid
//! model simulation that takes the current network state ... and outputs the
//! optimal rate allocation according to the NUM problem" (§6). This module is
//! that oracle.
//!
//! The solver is a **dual coordinate-ascent (Gauss–Seidel) method**: cycling
//! over links, each link's price is set (by bisection) to the exact value
//! that makes the link either saturated or free with zero price, holding the
//! other prices fixed. For smooth strictly-concave utilities the dual is
//! differentiable and concave, so exact coordinate maximization converges to
//! the dual optimum; the corresponding primal rates `x_i = U'⁻¹(Σ p_l)` then
//! solve the NUM problem. No step-size parameter is involved, which is what
//! makes this solver a trustworthy reference (unlike DGD, whose tuning is the
//! very thing the paper criticizes).
//!
//! Every solution is validated with [`kkt_residuals`] before being returned.
//!
//! # Cost of a coordinate step
//!
//! A link's update reads the other prices only through `rest_k`, the price
//! of flow `k`'s path outside the link, for each flow `k` on it. [`Oracle::solve`]
//! computes that vector once per update (it is fixed while the link's own
//! price is bisected) and then does only exact shortcuts:
//!
//! - **Settled links are skipped.** An update is a pure function of `rest`
//!   and the link's current price. If the link's last update left its price
//!   bit-identical, and `rest` is bit-identical to what that update saw, the
//!   update would return the same price again, so it is skipped. This fires
//!   when one part of the network has converged while another is still
//!   moving (disjoint components of an FCT workload, say). A link whose price
//!   changed, or whose `rest` moved by a single bit, is always re-solved.
//! - **A bracket decides most midpoints.** The price is found by doubling
//!   an upper bound `hi` from the current price and bisecting `[0, hi]`
//!   until the midpoint rounds onto an end point; the answer is
//!   `0.5·(lo + hi)`. The predicate `load(q) > cap` is evaluated only where
//!   it is needed. Every evaluated price goes into a bracket
//!   `a < root ≤ b`: `a` is the largest price seen with load above
//!   capacity, `b` the smallest with load at most capacity. Before the
//!   bisection, a few secant probes (see `Bracket::narrow`) shrink it to
//!   about two ULPs. A midpoint `≤ a` then exceeds the capacity and one
//!   `≥ b` does not, without an evaluation; only midpoints strictly inside
//!   the bracket are evaluated. A saturated step thus costs about nine load
//!   evaluations, where evaluating every midpoint costs about fifty-five.
//!
//!   This is exact as long as the load is non-increasing in the link's
//!   price, bit for bit: then one evaluated load decides every price on the
//!   same side of it. It is, because [`Utility::inverse_marginal`] is
//!   non-increasing in the price (its contract, tested down to single
//!   ULPs), `(rest + q).max(0.0)` and `x.min(MAX_RATE)` are monotone, and
//!   a float sum of non-increasing terms in a fixed order is non-increasing.
//!   The probes only place the bracket; every answer comes from the same
//!   predicate the plain bisection would evaluate. A full load sum gives the
//!   same predicate as one that stops once it passes the capacity, because
//!   every term is at least [`MIN_RATE`] > 0.
//!
//! The results are bit-identical to running every update in full, which
//! `crates/num/tests/oracle_golden.rs` pins and the unit tests check
//! against the plain bisection kept as a reference.
//! [`OracleSolution::coordinate_steps`], [`OracleSolution::skipped_steps`]
//! and [`OracleSolution::load_probes`] count the updates visited, the
//! updates skipped and the load evaluations made.
//!
//! [`Utility::inverse_marginal`]: crate::utility::Utility::inverse_marginal

use crate::kkt::{kkt_residuals, KktResiduals};
use crate::topology::{FlowId, FluidNetwork, MultipathGroups};
use crate::{EPS, MAX_RATE, MIN_RATE};

/// Configuration for the oracle solver.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Maximum number of Gauss–Seidel sweeps over the links.
    pub max_sweeps: usize,
    /// Target on the maximum KKT residual.
    pub tolerance: f64,
    /// Bisection iterations per link-price update.
    pub bisection_iters: usize,
}

impl Default for Oracle {
    fn default() -> Self {
        Self {
            max_sweeps: 2_000,
            tolerance: 1e-6,
            bisection_iters: 100,
        }
    }
}

/// The result of an oracle solve.
#[derive(Debug, Clone)]
pub struct OracleSolution {
    /// Optimal flow rates (one per flow, same order as the network's flows).
    pub rates: Vec<f64>,
    /// Optimal link prices (dual variables, one per link).
    pub prices: Vec<f64>,
    /// KKT residuals of the returned point.
    pub residuals: KktResiduals,
    /// Number of Gauss–Seidel sweeps performed.
    pub sweeps: usize,
    /// Whether the KKT residuals met the requested tolerance.
    pub converged: bool,
    /// Per-link price updates visited over all sweeps: one per link that
    /// carries a flow, per sweep.
    pub coordinate_steps: usize,
    /// How many of those updates were skipped because the link had settled
    /// (see the module doc). Always zero for [`Oracle::solve_multipath`].
    pub skipped_steps: usize,
    /// Link-load evaluations over all updates: the load through one link at
    /// one trial price. For [`Oracle::solve_multipath`], its `load_at` calls.
    pub load_probes: usize,
}

impl Oracle {
    /// An oracle with default settings (tolerance `1e-6`).
    pub fn new() -> Self {
        Self::default()
    }

    /// An oracle with a custom KKT tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }

    /// Solve the NUM problem for `net`.
    ///
    /// Utilities must be strictly concave (all of the catalogue in
    /// [`crate::utility`] except α-fair with `α = 0`); a purely linear
    /// utility makes the primal solution non-unique and the bisection
    /// degenerate.
    ///
    /// Sweeps until the KKT residuals are within the tolerance or
    /// `max_sweeps` sweeps have run; in the latter case it returns the best
    /// point (smallest maximum residual) any sweep reached, with
    /// `converged == false`. With `max_sweeps == 0` it returns the starting
    /// point, `converged` judged on its residuals.
    ///
    /// Returns an empty solution for a network with no flows.
    pub fn solve(&self, net: &FluidNetwork) -> OracleSolution {
        self.solve_with(net, |flows, rest, cap, price, probes| {
            self.clear_link(net, flows, rest, cap, price, probes)
        })
    }

    /// [`Oracle::solve`] with the coordinate step `clear(flows, rest, cap,
    /// price, probes)` as a parameter, so tests can run the same sweeps with
    /// a reference step. `clear` adds the link-load evaluations it made to
    /// `probes`.
    fn solve_with(
        &self,
        net: &FluidNetwork,
        mut clear: impl FnMut(&[FlowId], &[f64], f64, f64, &mut usize) -> f64,
    ) -> OracleSolution {
        let n = net.num_flows();
        let m = net.num_links();
        if n == 0 {
            return OracleSolution {
                rates: Vec::new(),
                prices: vec![0.0; m],
                residuals: KktResiduals {
                    stationarity: 0.0,
                    primal_feasibility: 0.0,
                    complementary_slackness: 0.0,
                    dual_feasibility: 0.0,
                },
                sweeps: 0,
                converged: true,
                coordinate_steps: 0,
                skipped_steps: 0,
                load_probes: 0,
            };
        }

        let flows_per_link = net.flows_per_link();
        let caps = net.capacities();

        // Initial prices: pretend each link is the only bottleneck of the
        // flows crossing it and each flow gets an equal share of it. This is
        // a warm start, not a requirement for convergence.
        let mut prices = vec![0.0_f64; m];
        for l in 0..m {
            let flows = &flows_per_link[l];
            if flows.is_empty() {
                continue;
            }
            let share = caps[l] / flows.len() as f64;
            let avg_marginal = flows
                .iter()
                .map(|&i| net.flows()[i].utility.marginal(share))
                .sum::<f64>()
                / flows.len() as f64;
            prices[l] = avg_marginal / net.flows()[flows[0]].path.len().max(1) as f64;
        }

        // Rates implied by a price vector.
        let rates_for = |prices: &[f64]| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let p = net.path_price(prices, i);
                    net.flows()[i].utility.inverse_marginal(p.max(0.0))
                })
                .collect()
        };

        // Settled-link state (see the module doc): `last_rest[l]` holds the
        // `rest` prices link l's last update saw, and `settled[l]` whether
        // that update left its price bit-identical.
        let mut last_rest: Vec<Vec<f64>> = vec![Vec::new(); m];
        let mut settled = vec![false; m];
        let mut rest = Vec::new();
        let mut coordinate_steps = 0;
        let mut skipped_steps = 0;
        let mut load_probes = 0;

        let mut sweeps = 0;
        let mut best: Option<(Vec<f64>, Vec<f64>, KktResiduals)> = None;

        for sweep in 0..self.max_sweeps {
            sweeps = sweep + 1;
            for l in 0..m {
                let flows = &flows_per_link[l];
                if flows.is_empty() {
                    prices[l] = 0.0;
                    continue;
                }
                coordinate_steps += 1;
                // The price of each flow's path outside link l: all the
                // update needs from the other links, fixed while it runs.
                rest.clear();
                rest.extend(
                    flows
                        .iter()
                        .map(|&i| net.path_price(&prices, i) - prices[l]),
                );
                if settled[l] && same_bits(&rest, &last_rest[l]) {
                    skipped_steps += 1;
                    continue;
                }
                let old = prices[l];
                prices[l] = clear(flows, &rest, caps[l], old, &mut load_probes);
                settled[l] = prices[l].to_bits() == old.to_bits();
                last_rest[l].clone_from(&rest);
            }

            let rates = rates_for(&prices);
            let res = kkt_residuals(net, &rates, &prices);
            let better = match &best {
                Some((_, _, b)) => res.max() < b.max(),
                None => true,
            };
            if better {
                best = Some((rates.clone(), prices.clone(), res));
            }
            if res.within(self.tolerance) {
                return OracleSolution {
                    rates,
                    prices,
                    residuals: res,
                    sweeps,
                    converged: true,
                    coordinate_steps,
                    skipped_steps,
                    load_probes,
                };
            }
        }

        // No sweep ran (`max_sweeps == 0`): the best point is the start.
        let (rates, prices, residuals) = best.unwrap_or_else(|| {
            let rates = rates_for(&prices);
            let res = kkt_residuals(net, &rates, &prices);
            (rates, prices, res)
        });
        let converged = residuals.within(self.tolerance);
        OracleSolution {
            rates,
            prices,
            residuals,
            sweeps,
            converged,
            coordinate_steps,
            skipped_steps,
            load_probes,
        }
    }

    /// One coordinate step: the price of a link of capacity `cap` carrying
    /// `flows` that clears it, given `rest[k]`, the price of flow `k`'s path
    /// outside the link, and the link's current `price` (the start of the
    /// upper-bound search). Zero if the link is not saturated at price zero.
    /// Adds the number of link-load evaluations it made to `probes`.
    ///
    /// A pure function of `rest` and `price`, which is what makes skipping
    /// settled links exact. The result is that of bisecting `[0, hi]` with
    /// an evaluation at every midpoint; the `Bracket` only decides most
    /// midpoints without one (see the module doc).
    fn clear_link(
        &self,
        net: &FluidNetwork,
        flows: &[FlowId],
        rest: &[f64],
        cap: f64,
        price: f64,
        probes: &mut usize,
    ) -> f64 {
        // The load through the link at its own price `q`.
        let mut load = |q: f64| -> f64 {
            *probes += 1;
            let mut load = 0.0_f64;
            for (&i, &r) in flows.iter().zip(rest) {
                let x = net.flows()[i].utility.inverse_marginal((r + q).max(0.0));
                debug_assert!(
                    (MIN_RATE..=MAX_RATE).contains(&x),
                    "inverse_marginal returned {x}, outside [MIN_RATE, MAX_RATE]"
                );
                load += x.min(MAX_RATE);
            }
            load
        };
        let at_zero = load(0.0);
        if at_zero <= cap + EPS {
            return 0.0;
        }
        let mut bracket = Bracket::new(at_zero);
        // Find an upper bound where the link is no longer saturated.
        const MAX_DOUBLINGS: usize = 200;
        let mut hi = price.max(1e-9);
        let mut doublings = 0;
        while bracket.record(hi, load(hi), cap) && doublings < MAX_DOUBLINGS {
            hi *= 2.0;
            doublings += 1;
        }
        bracket.narrow(cap, &mut load);
        // Invariant: load(lo) > cap, and load(hi) <= cap unless the doubling
        // gave up. Once the midpoint rounds onto an end point every further
        // iteration reassigns that end point to itself, so stop there.
        let mut lo = 0.0_f64;
        for _ in 0..self.bisection_iters {
            let mid = 0.5 * (lo + hi);
            if doublings < MAX_DOUBLINGS && (mid == lo || mid == hi) {
                break;
            }
            let exceeds = match bracket.decide(mid) {
                Some(exceeds) => exceeds,
                None => bracket.record(mid, load(mid), cap),
            };
            if exceeds {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Solve a **multipath** NUM problem where subflows are grouped into
    /// aggregates (resource pooling, row 4 of Table 1).
    ///
    /// The objective is `Σ_g U_g(Σ_{p∈g} x_p)`; it is concave but not
    /// *strictly* concave in the subflow rates, so the subflow split is not
    /// unique. The solver adds a tiny strictly-concave regularizer
    /// `ε Σ_p log x_p` (ε = `regularizer`) to pin a unique solution, which is
    /// the standard trick and matches what the packet-level heuristic
    /// converges to in practice. The returned rates are per *subflow*;
    /// aggregate rates can be recovered with
    /// [`MultipathGroups::aggregate_rates`].
    pub fn solve_multipath(
        &self,
        net: &FluidNetwork,
        groups: &MultipathGroups,
        regularizer: f64,
    ) -> OracleSolution {
        assert!(regularizer > 0.0, "regularizer must be positive");
        let n = net.num_flows();
        let m = net.num_links();
        if n == 0 {
            return self.solve(net);
        }
        let flows_per_link = net.flows_per_link();
        let caps = net.capacities();

        // Given link prices, the optimal response of aggregate `g` solves
        //   maximize U_g(Σ_p x_p) + ε Σ_p log x_p − Σ_p q_p x_p,
        // whose first-order conditions are U_g'(y) + ε/x_p = q_p. Writing
        // μ = U_g'(y), this gives x_p = ε/(q_p − μ) and the scalar equation
        //   U_g'⁻¹(μ) = ε Σ_p 1/(q_p − μ),
        // which has a unique root μ ∈ (0, min_p q_p) (LHS decreasing in μ,
        // RHS increasing), found by bisection.
        let group_response = |g: usize, prices: &[f64], out: &mut [f64]| {
            let members = groups.members(g);
            let utility = &net.flows()[members[0]].utility;
            let qs: Vec<f64> = members
                .iter()
                .map(|&i| net.path_price(prices, i).max(1e-12))
                .collect();
            let q_min = qs.iter().cloned().fold(f64::INFINITY, f64::min);
            let total_at =
                |mu: f64| -> f64 { qs.iter().map(|&q| regularizer / (q - mu)).sum::<f64>() };
            // f(mu) = U'^{-1}(mu) - ε Σ 1/(q_p - mu): decreasing in mu.
            let f = |mu: f64| utility.inverse_marginal(mu).min(MAX_RATE) - total_at(mu);
            let mut lo = q_min * 1e-12;
            let mut hi = q_min * (1.0 - 1e-12);
            if f(lo) <= 0.0 {
                // Even at vanishing marginal the regularizer dominates; the
                // aggregate is tiny on every path.
                for (k, &i) in members.iter().enumerate() {
                    out[i] = regularizer / qs[k];
                }
                return;
            }
            for _ in 0..self.bisection_iters {
                let mid = 0.5 * (lo + hi);
                if f(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let mu = 0.5 * (lo + hi);
            for (k, &i) in members.iter().enumerate() {
                out[i] = regularizer / (qs[k] - mu).max(1e-15);
            }
        };

        let rates_for = |prices: &[f64]| -> Vec<f64> {
            let mut rates = vec![0.0_f64; n];
            for g in 0..groups.num_groups() {
                group_response(g, prices, &mut rates);
            }
            rates
        };

        // Which groups touch each link (their response must be recomputed when
        // that link's price changes).
        let mut groups_per_link: Vec<Vec<usize>> = vec![Vec::new(); m];
        for l in 0..m {
            let mut gs: Vec<usize> = flows_per_link[l]
                .iter()
                .map(|&i| groups.group_of(i))
                .collect();
            gs.sort_unstable();
            gs.dedup();
            groups_per_link[l] = gs;
        }

        let mut prices = vec![1e-3_f64; m];
        // `load_at` rewrites every entry it reads (the groups of link l's
        // flows are exactly `groups_per_link[l]`), so one buffer serves all.
        let mut scratch = vec![0.0_f64; n];
        let mut coordinate_steps = 0;
        let mut load_probes = 0;
        let mut sweeps = 0;
        let mut best: Option<(Vec<f64>, Vec<f64>, KktResiduals)> = None;

        for sweep in 0..self.max_sweeps {
            sweeps = sweep + 1;
            for l in 0..m {
                if flows_per_link[l].is_empty() {
                    prices[l] = 0.0;
                    continue;
                }
                coordinate_steps += 1;
                // Load through link l as a function of its own price, holding
                // other prices fixed (monotone decreasing by dual convexity).
                let mut load_at = |q: f64, prices: &mut Vec<f64>, scratch: &mut Vec<f64>| -> f64 {
                    load_probes += 1;
                    let saved = prices[l];
                    prices[l] = q;
                    for &g in &groups_per_link[l] {
                        group_response(g, prices, scratch);
                    }
                    prices[l] = saved;
                    flows_per_link[l].iter().map(|&i| scratch[i]).sum()
                };
                if load_at(0.0, &mut prices, &mut scratch) <= caps[l] + EPS {
                    prices[l] = 0.0;
                    continue;
                }
                let mut hi = prices[l].max(1e-9);
                let mut guard = 0;
                while load_at(hi, &mut prices, &mut scratch) > caps[l] && guard < 200 {
                    hi *= 2.0;
                    guard += 1;
                }
                let mut lo = 0.0_f64;
                for _ in 0..self.bisection_iters {
                    let mid = 0.5 * (lo + hi);
                    if load_at(mid, &mut prices, &mut scratch) > caps[l] {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                prices[l] = hi;
            }

            // Gauss–Seidel alone converges slowly here because the aggregate
            // couples all of a group's path prices: the slow mode is a common
            // under- or over-pricing of every link. Kill it with a global
            // rescaling step: find the multiplier `t` on all prices for which
            // the most-loaded link is exactly saturated (monotone in `t`, so
            // bisection applies).
            {
                let max_util = |t: f64| -> f64 {
                    let scaled: Vec<f64> = prices.iter().map(|&p| p * t).collect();
                    let r = rates_for(&scaled);
                    let loads = net.link_loads(&r);
                    loads
                        .iter()
                        .zip(caps.iter())
                        .map(|(&ld, &c)| ld / c)
                        .fold(0.0_f64, f64::max)
                };
                let (mut lo, mut hi) = (0.25_f64, 4.0_f64);
                if max_util(lo) >= 1.0 && max_util(hi) <= 1.0 {
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        if max_util(mid) > 1.0 {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    let t = hi;
                    for p in prices.iter_mut() {
                        *p *= t;
                    }
                }
            }

            let rates = rates_for(&prices);
            let res = kkt_residuals(net, &rates, &prices);
            // For the multipath objective the per-subflow stationarity of the
            // plain KKT check is off by the ε-regularizer, so convergence is
            // judged on feasibility and complementary slackness only.
            let err = res.primal_feasibility.max(res.complementary_slackness);
            let better = match &best {
                Some((_, _, b)) => err < b.primal_feasibility.max(b.complementary_slackness),
                None => true,
            };
            if better {
                best = Some((rates.clone(), prices.clone(), res));
            }
            // The ε-regularizer itself perturbs the solution by O(ε), so
            // requiring residuals below ε would never terminate; accept once
            // the point is within a small multiple of the regularizer.
            let accept = self.tolerance.max(10.0 * regularizer);
            if err <= accept {
                return OracleSolution {
                    rates,
                    prices,
                    residuals: res,
                    sweeps,
                    converged: true,
                    coordinate_steps,
                    skipped_steps: 0,
                    load_probes,
                };
            }
        }

        // No sweep ran (`max_sweeps == 0`): the best point is the start.
        let (rates, prices, residuals) = best.unwrap_or_else(|| {
            let rates = rates_for(&prices);
            let res = kkt_residuals(net, &rates, &prices);
            (rates, prices, res)
        });
        let converged = residuals
            .primal_feasibility
            .max(residuals.complementary_slackness)
            <= self.tolerance.max(10.0 * regularizer);
        OracleSolution {
            rates,
            prices,
            residuals,
            sweeps,
            converged,
            coordinate_steps,
            skipped_steps: 0,
            load_probes,
        }
    }
}

/// Whether two slices hold exactly the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A verified bracket `a < root ≤ b` on the price that clears a link: the
/// load was evaluated above the capacity at `a` and at most the capacity at
/// `b`. Because the load is non-increasing in the price, every price `≤ a`
/// exceeds the capacity and every price `≥ b` does not, without another
/// evaluation.
struct Bracket {
    a: f64,
    load_a: f64,
    b: f64,
    load_b: f64,
}

impl Bracket {
    /// Two probes closer than this many ULPs give a secant slope that is
    /// mostly rounding noise.
    const NOISY_ULPS: f64 = 16.0;
    /// A cap on narrowing probes; the bisection decides whatever is left.
    const MAX_PROBES: usize = 64;

    /// The bracket `[0, ∞)`, given the load `at_zero > cap` at price zero.
    fn new(at_zero: f64) -> Self {
        Self {
            a: 0.0,
            load_a: at_zero,
            b: f64::INFINITY,
            load_b: 0.0,
        }
    }

    /// Records that the load at price `q`, inside the bracket, is `load`,
    /// and returns whether it exceeds `cap`.
    fn record(&mut self, q: f64, load: f64, cap: f64) -> bool {
        debug_assert!(
            self.a < q && q <= self.b,
            "{q} outside ({}, {})",
            self.a,
            self.b
        );
        if load > cap {
            self.a = q;
            self.load_a = load;
            true
        } else {
            self.b = q;
            self.load_b = load;
            false
        }
    }

    /// Whether the load at `q` exceeds the capacity, if the bracket decides
    /// it; `None` strictly inside the bracket.
    fn decide(&self, q: f64) -> Option<bool> {
        if q <= self.a {
            Some(true)
        } else if q >= self.b {
            Some(false)
        } else {
            None
        }
    }

    /// Tightens a finite bracket with a few probes of `load`, until at most
    /// one float lies strictly inside it. Each probe is the secant root of `g = ln(load / cap)`
    /// (closer to linear in the price than the load, which falls like a
    /// power of it):
    ///
    /// - through the last two probes (initially the bracket's ends), or
    ///   through the bracket's ends when the last two are so close that
    ///   their slope is rounding noise;
    /// - kept at least `margin` ULPs inside the bracket, where `margin`
    ///   doubles while probes keep landing on the same side of the root, so
    ///   a secant that has converged onto one end steps across the root;
    /// - replaced by the bracket's midpoint if it falls outside the bracket
    ///   (or the margins leave no room).
    ///
    /// Probes only place the bracket; they never decide a result the
    /// bisection would not.
    fn narrow(&mut self, cap: f64, load: &mut impl FnMut(f64) -> f64) {
        if self.b == f64::INFINITY {
            return;
        }
        let g = |load: f64| ((load - cap) / cap).ln_1p();
        let (mut x0, mut g0) = (self.a, g(self.load_a));
        let (mut x1, mut g1) = (self.b, g(self.load_b));
        let mut margin = 1.0_f64;
        let mut last = None;
        for _ in 0..Self::MAX_PROBES {
            let (a, b) = (self.a, self.b);
            if a.next_up().next_up() >= b {
                break;
            }
            let ulp = b.next_up() - b;
            let q = if (x1 - x0).abs() > Self::NOISY_ULPS * ulp {
                x1 - g1 * ((x1 - x0) / (g1 - g0))
            } else {
                let (ga, gb) = (g(self.load_a), g(self.load_b));
                a + (b - a) * (ga / (ga - gb))
            };
            let kept = q.min(b - margin * ulp).max(a + margin * ulp);
            let q = if (a..=b).contains(&q) && a < kept && kept < b {
                kept
            } else {
                0.5 * (a + b)
            };
            if q <= a || q >= b {
                break;
            }
            let at_q = load(q);
            let exceeds = self.record(q, at_q, cap);
            (x0, g0, x1, g1) = (x1, g1, q, g(at_q));
            margin = if last == Some(exceeds) {
                2.0 * margin
            } else {
                1.0
            };
            last = Some(exceeds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth_function::BandwidthFunction;
    use crate::maxmin::weighted_max_min;
    use crate::topology::{FluidFlow, FluidNetwork};
    use crate::utility::{
        AlphaFair, BandwidthFunctionUtility, FctUtility, LogUtility, Utility, UtilityRef,
    };
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    impl Oracle {
        /// The coordinate step without the bracket, the reference the
        /// bracketed step must match bit for bit: the same doubling and
        /// bisection, with a (short-circuited) load evaluation at every
        /// midpoint.
        fn reference_clear_link(
            &self,
            net: &FluidNetwork,
            flows: &[FlowId],
            rest: &[f64],
            cap: f64,
            price: f64,
        ) -> f64 {
            // Whether the load through the link at its own price `q` exceeds
            // `bound`. Stopping once the partial sum passes the bound is exact
            // because every term is positive (see the module doc).
            let exceeds = |q: f64, bound: f64| -> bool {
                let mut load = 0.0_f64;
                for (&i, &r) in flows.iter().zip(rest) {
                    let x = net.flows()[i].utility.inverse_marginal((r + q).max(0.0));
                    debug_assert!(
                        (MIN_RATE..=MAX_RATE).contains(&x),
                        "inverse_marginal returned {x}, outside [MIN_RATE, MAX_RATE]"
                    );
                    load += x.min(MAX_RATE);
                    if load > bound {
                        return true;
                    }
                }
                false
            };
            if !exceeds(0.0, cap + EPS) {
                return 0.0;
            }
            // Find an upper bound where the link is no longer saturated.
            const MAX_DOUBLINGS: usize = 200;
            let mut hi = price.max(1e-9);
            let mut doublings = 0;
            while exceeds(hi, cap) && doublings < MAX_DOUBLINGS {
                hi *= 2.0;
                doublings += 1;
            }
            // Invariant: load(lo) > cap, and load(hi) <= cap unless the doubling
            // gave up. Once the midpoint rounds onto an end point every further
            // iteration reassigns that end point to itself, so stop there.
            let mut lo = 0.0_f64;
            for _ in 0..self.bisection_iters {
                let mid = 0.5 * (lo + hi);
                if doublings < MAX_DOUBLINGS && (mid == lo || mid == hi) {
                    break;
                }
                if exceeds(mid, cap) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }
    }

    /// A utility that counts its `inverse_marginal` calls. Every load
    /// evaluation of the reference step starts with the link's first flow,
    /// so that flow's count is the reference's number of load probes.
    #[derive(Debug)]
    struct Counted {
        inner: UtilityRef,
        calls: AtomicUsize,
    }

    impl Utility for Counted {
        fn value(&self, x: f64) -> f64 {
            self.inner.value(x)
        }

        fn marginal(&self, x: f64) -> f64 {
            self.inner.marginal(x)
        }

        fn inverse_marginal(&self, p: f64) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.inverse_marginal(p)
        }

        fn name(&self) -> String {
            self.inner.name()
        }
    }

    /// A link of capacity `cap` carrying one flow per utility, for calling
    /// the coordinate step directly.
    fn one_link(cap: f64, utilities: &[UtilityRef]) -> FluidNetwork {
        let mut net = FluidNetwork::new();
        let l = net.add_link(cap);
        for u in utilities {
            net.add_flow(FluidFlow::with_utility_ref(vec![l], u.clone()));
        }
        net
    }

    /// Log-uniform in `[10^lo, 10^hi)`.
    fn log_uniform(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
        10f64.powf(rng.gen_range(lo..hi))
    }

    /// `x` moved by `k` ULPs (down for negative `k`).
    fn ulps(x: f64, k: i32) -> f64 {
        (0..k.abs()).fold(x, |x, _| if k < 0 { x.next_down() } else { x.next_up() })
    }

    /// Runs both steps on one input and compares the bits.
    fn assert_step_matches(oracle: &Oracle, net: &FluidNetwork, rest: &[f64], price: f64) {
        let flows: Vec<FlowId> = (0..net.num_flows()).collect();
        let cap = net.capacities()[0];
        let reference = oracle.reference_clear_link(net, &flows, rest, cap, price);
        let bracketed = oracle.clear_link(net, &flows, rest, cap, price, &mut 0);
        assert_eq!(
            bracketed.to_bits(),
            reference.to_bits(),
            "step {bracketed:e} vs reference {reference:e}: cap {cap}, rest {rest:?}, \
             price {price:e}, utilities {:?}",
            net.flows()
                .iter()
                .map(|f| f.utility.name())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn bracketed_step_matches_the_reference_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0b5e55ed);
        for case in 0..480 {
            let n = rng.gen_range(1..=8);
            let utilities: Vec<UtilityRef> = (0..n)
                .map(|_| -> UtilityRef {
                    match case % 4 {
                        0 => Arc::new(FctUtility::new(log_uniform(&mut rng, 3.0, 7.5).round())),
                        1 => Arc::new(LogUtility::weighted(rng.gen_range(0.1..10.0))),
                        2 => {
                            let alpha = [0.5, 2.0, 4.0][rng.gen_range(0..3usize)];
                            Arc::new(AlphaFair::weighted(alpha, rng.gen_range(0.1..10.0)))
                        }
                        _ => Arc::new(BandwidthFunctionUtility::new(if rng.gen_bool(0.5) {
                            BandwidthFunction::paper_flow1()
                        } else {
                            BandwidthFunction::paper_flow2()
                        })),
                    }
                })
                .collect();
            let net = one_link(rng.gen_range(1.0..40.0), &utilities);
            let rest: Vec<f64> = if rng.gen_bool(0.3) {
                vec![0.0; n]
            } else {
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            log_uniform(&mut rng, -10.0, 1.0)
                        }
                    })
                    .collect()
            };
            let oracle = Oracle {
                bisection_iters: [60, 100][case % 2],
                ..Oracle::new()
            };
            let flows: Vec<FlowId> = (0..n).collect();
            let cap = net.capacities()[0];
            let root = oracle.reference_clear_link(&net, &flows, &rest, cap, 1e-9);
            let far = log_uniform(&mut rng, -12.0, 2.0);
            for price in [
                0.0,
                1e-9,
                root,
                ulps(root, 1),
                ulps(root, -1),
                ulps(root, 4),
                ulps(root, -4),
                root * 1.5,
                root / 3.0,
                root * 1e3,
                root * 1e-3,
                far,
            ] {
                assert_step_matches(&oracle, &net, &rest, price);
            }
        }
    }

    #[test]
    fn bracketed_step_matches_the_reference_when_the_doubling_gives_up() {
        // A linear utility wants `MAX_RATE` at any price, so the link never
        // clears and the upper-bound search stops after `MAX_DOUBLINGS`.
        let utilities: Vec<UtilityRef> = vec![Arc::new(AlphaFair::new(0.0))];
        let net = one_link(10.0, &utilities);
        for price in [0.0, 1e-9, 0.3, 7e5] {
            assert_step_matches(&Oracle::new(), &net, &[0.0], price);
            assert_step_matches(&Oracle::new(), &net, &[2.5], price);
        }
    }

    /// An FCT instance shaped like those of `tests/oracle_golden.rs`: links
    /// of 10 or 40, flows over 1–3 of them with sizes log-uniform in
    /// 1 kB–30 MB. Returns the flows' counting utilities too.
    fn counted_fct_instance(
        seed: u64,
        links: usize,
        flows: usize,
    ) -> (FluidNetwork, Vec<Arc<Counted>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..links {
            net.add_link(if rng.gen_bool(0.5) { 10.0 } else { 40.0 });
        }
        let mut counters = Vec::new();
        for _ in 0..flows {
            let mut path: Vec<usize> = (0..links).collect();
            path.shuffle(&mut rng);
            path.truncate(rng.gen_range(1..=3.min(links)));
            let counted = Arc::new(Counted {
                inner: Arc::new(FctUtility::new(log_uniform(&mut rng, 3.0, 7.5).round())),
                calls: AtomicUsize::new(0),
            });
            net.add_flow(FluidFlow::with_utility_ref(path, counted.clone()));
            counters.push(counted);
        }
        (net, counters)
    }

    #[test]
    fn bracketed_solve_matches_the_reference_with_a_third_of_the_probes() {
        let oracle = Oracle {
            tolerance: 1e-3,
            max_sweeps: 200,
            bisection_iters: 60,
        };
        for seed in 0..6 {
            let (net, counters) = counted_fct_instance(seed, 3 + seed as usize % 3, 6);
            let sol = oracle.solve(&net);
            let reference = oracle.solve_with(&net, |flows, rest, cap, price, probes| {
                let calls = || counters[flows[0]].calls.load(Ordering::Relaxed);
                let before = calls();
                let price = oracle.reference_clear_link(&net, flows, rest, cap, price);
                *probes += calls() - before;
                price
            });
            assert_eq!(bits(&sol.rates), bits(&reference.rates), "seed {seed}");
            assert_eq!(bits(&sol.prices), bits(&reference.prices), "seed {seed}");
            assert_eq!(sol.sweeps, reference.sweeps, "seed {seed}");
            assert_eq!(sol.converged, reference.converged, "seed {seed}");
            assert_eq!(sol.coordinate_steps, reference.coordinate_steps);
            assert_eq!(sol.skipped_steps, reference.skipped_steps);
            assert!(
                3 * sol.load_probes <= reference.load_probes,
                "seed {seed}: {} probes vs the reference's {}",
                sol.load_probes,
                reference.load_probes
            );
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_sweeps_return_the_starting_point() {
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(1.0);
        let l1 = net.add_link(1.0);
        net.add_simple_flow(vec![l0, l1], LogUtility::new());
        net.add_simple_flow(vec![l0], LogUtility::new());
        let oracle = Oracle {
            max_sweeps: 0,
            ..Oracle::new()
        };
        let sol = oracle.solve(&net);
        assert_eq!(sol.sweeps, 0);
        assert_eq!((sol.coordinate_steps, sol.load_probes), (0, 0));
        // The warm start: each link priced as if its flows split it evenly.
        // Link 0: two flows at 0.5 each, marginal 2, over a 2-link path.
        assert_eq!(sol.prices, vec![1.0, 0.5]);
        assert_eq!(sol.rates, vec![1.0 / 1.5, 1.0]);
        assert_eq!(sol.converged, sol.residuals.within(oracle.tolerance));
        assert!(!sol.converged, "{:?}", sol.residuals);
    }

    #[test]
    fn zero_sweeps_return_the_multipath_starting_point() {
        let mut net = FluidNetwork::new();
        let a = net.add_link(10.0);
        let b = net.add_link(2.0);
        net.add_flow(FluidFlow::new(vec![a], LogUtility::new()).in_group(0));
        net.add_flow(FluidFlow::new(vec![b], LogUtility::new()).in_group(0));
        let groups = MultipathGroups::from_network(&net);
        let oracle = Oracle {
            max_sweeps: 0,
            ..Oracle::new()
        };
        let sol = oracle.solve_multipath(&net, &groups, 1e-4);
        assert_eq!(sol.sweeps, 0);
        assert_eq!((sol.coordinate_steps, sol.load_probes), (0, 0));
        assert_eq!(sol.prices, vec![1e-3, 1e-3]);
        assert_eq!(sol.rates.len(), 2);
        assert!(!sol.converged, "{:?}", sol.residuals);
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_link_proportional_fairness_splits_evenly() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], LogUtility::new());
        net.add_simple_flow(vec![l], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged, "{:?}", sol.residuals);
        assert!(close(sol.rates[0], 5.0, 1e-4), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 5.0, 1e-4), "{:?}", sol.rates);
        assert!(close(sol.prices[0], 0.2, 1e-3), "{:?}", sol.prices);
    }

    #[test]
    fn weighted_proportional_fairness_splits_by_weight() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(12.0);
        net.add_simple_flow(vec![l], LogUtility::weighted(1.0));
        net.add_simple_flow(vec![l], LogUtility::weighted(2.0));
        net.add_simple_flow(vec![l], LogUtility::weighted(3.0));
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(close(sol.rates[0], 2.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 4.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[2], 6.0, 1e-3), "{:?}", sol.rates);
    }

    #[test]
    fn parking_lot_proportional_fairness() {
        // Known closed form: long flow gets 1/3, short flows get 2/3 (cap 1).
        let mut net = FluidNetwork::new();
        let l0 = net.add_link(1.0);
        let l1 = net.add_link(1.0);
        net.add_simple_flow(vec![l0, l1], LogUtility::new());
        net.add_simple_flow(vec![l0], LogUtility::new());
        net.add_simple_flow(vec![l1], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(close(sol.rates[0], 1.0 / 3.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[1], 2.0 / 3.0, 1e-3), "{:?}", sol.rates);
        assert!(close(sol.rates[2], 2.0 / 3.0, 1e-3), "{:?}", sol.rates);
    }

    #[test]
    fn alpha_two_parking_lot_biases_toward_short_flows_less_than_alpha_one() {
        // As alpha grows the allocation approaches max-min (1/2, 1/2, 1/2).
        let build = |alpha: f64| {
            let mut net = FluidNetwork::new();
            let l0 = net.add_link(1.0);
            let l1 = net.add_link(1.0);
            net.add_simple_flow(vec![l0, l1], AlphaFair::new(alpha));
            net.add_simple_flow(vec![l0], AlphaFair::new(alpha));
            net.add_simple_flow(vec![l1], AlphaFair::new(alpha));
            net
        };
        let x1 = Oracle::new().solve(&build(1.0)).rates[0];
        let x4 = Oracle::new().solve(&build(4.0)).rates[0];
        let x16 = Oracle::new().solve(&build(16.0)).rates[0];
        assert!(x1 < x4 && x4 < x16, "{x1} {x4} {x16}");
        assert!(x16 < 0.5 + 1e-3);
    }

    #[test]
    fn fct_utility_gives_small_flow_most_of_the_link() {
        let mut net = FluidNetwork::new();
        let l = net.add_link(10.0);
        net.add_simple_flow(vec![l], FctUtility::new(1e4));
        net.add_simple_flow(vec![l], FctUtility::new(1e7));
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(sol.rates[0] > 9.0 * sol.rates[1], "{:?}", sol.rates);
        assert!(close(sol.rates[0] + sol.rates[1], 10.0, 1e-3));
    }

    #[test]
    fn empty_network_is_trivially_converged() {
        let net = FluidNetwork::new();
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        assert!(sol.rates.is_empty());
    }

    #[test]
    fn unconstrained_flows_get_zero_price_links() {
        // One flow on a huge link alongside a tiny link that nobody uses.
        let mut net = FluidNetwork::new();
        let big = net.add_link(100.0);
        let _unused = net.add_link(1.0);
        net.add_simple_flow(vec![big], LogUtility::new());
        let sol = Oracle::new().solve(&net);
        assert!(sol.converged);
        // Proportional fairness on a single flow: it takes the whole link.
        assert!(close(sol.rates[0], 100.0, 1e-3), "{:?}", sol.rates);
        assert!(sol.prices[1].abs() < 1e-9);
    }

    fn random_instance(seed: u64, links: usize, flows: usize, alpha: f64) -> FluidNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = FluidNetwork::new();
        for _ in 0..links {
            net.add_link(rng.gen_range(1.0..20.0));
        }
        for _ in 0..flows {
            let path_len = rng.gen_range(1..=3.min(links));
            let mut path: Vec<usize> = (0..links).collect();
            path.shuffle(&mut rng);
            path.truncate(path_len);
            net.add_flow(FluidFlow::new(path, AlphaFair::new(alpha)));
        }
        net
    }

    #[test]
    fn random_instances_reach_kkt_tolerance() {
        for seed in 0..20 {
            let net = random_instance(seed, 6, 15, 1.0);
            let sol = Oracle::new().solve(&net);
            assert!(sol.converged, "seed {seed} residuals {:?}", sol.residuals);
        }
    }

    #[test]
    fn multipath_oracle_pools_capacity() {
        // Two disjoint paths of capacity 10 and 2; a single aggregate with two
        // subflows (one per path) should end up with total rate ~12 when it is
        // the only traffic.
        let mut net = FluidNetwork::new();
        let a = net.add_link(10.0);
        let b = net.add_link(2.0);
        net.add_flow(FluidFlow::new(vec![a], LogUtility::new()).in_group(0));
        net.add_flow(FluidFlow::new(vec![b], LogUtility::new()).in_group(0));
        let groups = MultipathGroups::from_network(&net);
        let sol = Oracle::new().solve_multipath(&net, &groups, 1e-4);
        let totals = groups.aggregate_rates(&sol.rates);
        assert!(
            close(totals[0], 12.0, 0.05),
            "{totals:?} rates={:?}",
            sol.rates
        );
        assert!(net.is_feasible(&sol.rates, 1e-3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The oracle's allocation is feasible and KKT-optimal on random
        /// proportional-fairness instances.
        #[test]
        fn prop_oracle_kkt_optimal(seed in 0u64..300, links in 2usize..6, flows in 1usize..12) {
            let net = random_instance(seed, links, flows, 1.0);
            let sol = Oracle::with_tolerance(1e-5).solve(&net);
            prop_assert!(net.is_feasible(&sol.rates, 1e-4));
            prop_assert!(sol.residuals.within(1e-3), "residuals {:?}", sol.residuals);
        }

        /// The oracle beats (or matches) any feasible random allocation in
        /// total utility — i.e. it really is a maximizer.
        #[test]
        fn prop_oracle_dominates_random_feasible_points(seed in 0u64..200) {
            let net = random_instance(seed, 4, 8, 1.0);
            let sol = Oracle::new().solve(&net);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef);
            // Random feasible point: scale a random positive vector until it fits.
            let mut rates: Vec<f64> = (0..net.num_flows()).map(|_| rng.gen_range(0.01..1.0)).collect();
            let loads = net.link_loads(&rates);
            let caps = net.capacities();
            let worst = loads.iter().zip(caps.iter()).map(|(l, c)| l / c).fold(0.0f64, f64::max);
            if worst > 0.0 {
                for r in rates.iter_mut() { *r /= worst * 1.001; }
            }
            prop_assert!(net.is_feasible(&rates, 1e-6));
            prop_assert!(net.total_utility(&sol.rates) >= net.total_utility(&rates) - 1e-6);
        }

        /// On a single-bottleneck topology, the NUM optimum for pure
        /// (weighted) log utilities IS the weighted max-min allocation —
        /// proportional fairness splits one link in proportion to weight,
        /// which is exactly what `weighted_max_min` computes. This pins the
        /// two solvers to each other on the one case with a closed form.
        #[test]
        fn prop_oracle_matches_weighted_maxmin_on_single_bottleneck(
            seed in 0u64..300,
            flows in 1usize..10,
            cap in 1.0f64..50.0,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51_b0);
            let mut net = FluidNetwork::new();
            let l = net.add_link(cap);
            let weights: Vec<f64> =
                (0..flows).map(|_| rng.gen_range(0.1..5.0)).collect();
            for &w in &weights {
                net.add_simple_flow(vec![l], LogUtility::weighted(w));
            }
            let sol = Oracle::with_tolerance(1e-7).solve(&net);
            prop_assert!(sol.converged, "oracle did not converge: {:?}", sol.residuals);
            let mm = weighted_max_min(&net, &weights);
            for (i, (&o, &m)) in sol.rates.iter().zip(mm.iter()).enumerate() {
                prop_assert!(
                    close(o, m, 1e-4),
                    "flow {i}: oracle {o} vs weighted max-min {m} (weights {weights:?})"
                );
            }
            // And the KKT residuals of that solution are below tolerance.
            prop_assert!(sol.residuals.within(1e-4), "residuals {:?}", sol.residuals);
        }
    }
}
