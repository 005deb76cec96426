//! Design fingerprints: a stable 64-bit digest of (problem, design) pairs.
//!
//! The evaluation cache is keyed by this digest, so it must be a pure
//! function of everything that determines an oracle's score: node
//! positions, the radio card's power model, the demand matrix, and the
//! candidate's routes and awake set. FNV-1a ([`Fnv1a`], from `eend-sim`)
//! over a canonical byte walk — the same digest `ResultStore` uses for
//! campaign fingerprints.

use eend_core::design::Design;
use eend_core::problem::DesignProblem;
use eend_sim::Fnv1a;

/// Digest of the problem alone (positions, card power model, demands).
/// Cache directories record this so a cache built for one instance is
/// never consulted for another.
pub fn problem_fingerprint(problem: &DesignProblem) -> u64 {
    let mut h = Fnv1a::default();
    let inst = &problem.instance;
    h.write_u64(inst.node_count() as u64);
    for &(x, y) in inst.positions() {
        h.write_f64(x);
        h.write_f64(y);
    }
    let card = inst.card();
    h.write(card.name.as_bytes());
    for v in [
        card.p_idle_mw,
        card.p_rx_mw,
        card.p_sleep_mw,
        card.p_base_mw,
        card.path_loss_n,
        card.nominal_range_m,
        card.switch_energy_mj,
    ] {
        h.write_f64(v);
    }
    h.write_u64(problem.demands.len() as u64);
    for d in &problem.demands {
        h.write_u64(d.source as u64);
        h.write_u64(d.sink as u64);
        h.write_f64(d.rate_bps);
    }
    h.finish()
}

/// Digest of a (problem, design) pair — the evaluation-cache key.
pub fn design_fingerprint(problem: &DesignProblem, design: &Design) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(problem_fingerprint(problem));
    h.write_u64(design.routes.len() as u64);
    for route in &design.routes {
        match route {
            None => h.write_u64(u64::MAX),
            Some(path) => {
                h.write_u64(path.len() as u64);
                for &v in path {
                    h.write_u64(v as u64);
                }
            }
        }
    }
    h.write_u64(design.active.len() as u64);
    for &a in &design.active {
        h.write(&[u8::from(a)]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_core::design::{Designer, Heuristic};
    use eend_core::problem::{Demand, WirelessInstance};
    use eend_radio::cards;

    fn problem() -> DesignProblem {
        let inst = WirelessInstance::new(
            vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)],
            cards::cabletron(),
        );
        DesignProblem::new(inst, vec![Demand::new(0, 2, 8_000.0)])
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let a = design_fingerprint(&p, &d);
        assert_eq!(a, design_fingerprint(&p, &d), "same input, same digest");

        let mut d2 = d.clone();
        d2.active[1] = !d2.active[1];
        assert_ne!(a, design_fingerprint(&p, &d2), "active set must matter");

        let mut d3 = d.clone();
        d3.routes[0] = None;
        assert_ne!(a, design_fingerprint(&p, &d3), "routes must matter");
    }

    #[test]
    fn problem_changes_change_the_key() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let mut p2 = p.clone();
        p2.demands[0].rate_bps = 9_000.0;
        assert_ne!(design_fingerprint(&p, &d), design_fingerprint(&p2, &d));
    }

    #[test]
    fn empty_route_and_missing_route_differ() {
        let p = problem();
        let base = Design { routes: vec![Some(vec![])], active: vec![false; 3] };
        let none = Design { routes: vec![None], active: vec![false; 3] };
        assert_ne!(design_fingerprint(&p, &base), design_fingerprint(&p, &none));
    }
}
