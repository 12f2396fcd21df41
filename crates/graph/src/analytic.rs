//! Analytic references: what theory expects of the paper's measurements,
//! computed from the inputs an experiment already has, to print beside
//! the measured value.

/// The share of the nodes that push gossip at `fanout` reaches in a large
/// network over uniform random views, by the mean-field model of
/// Kermarrec, Massoulié and Ganesh ("Probabilistic reliable dissemination
/// in large-scale systems", IEEE TPDS 14(3), 2003): the root π of
/// π = 1 − e^(−fπ), found by fixed-point iteration from π = 1. A fanout of
/// 1 is the critical point, where the model reaches no one.
pub fn mean_field_reach(fanout: usize) -> f64 {
    if fanout <= 1 {
        return 0.0;
    }
    let mut reach = 1.0_f64;
    loop {
        let next = 1.0 - (-(fanout as f64) * reach).exp();
        if (next - reach).abs() < 1e-12 {
            return next;
        }
        reach = next;
    }
}

/// The chance that one push-gossip broadcast at `fanout` reaches all of
/// `n` nodes, by the same mean-field model: each node is missed
/// independently with probability e^(−fπ), π the
/// [`mean_field_reach`], so the broadcast is atomic with probability
/// about exp(−n·e^(−fπ)).
pub fn mean_field_atomic(n: usize, fanout: usize) -> f64 {
    let missed = (-(fanout as f64) * mean_field_reach(fanout)).exp();
    (-(n as f64) * missed).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_field_reach_solves_the_epidemic_fixed_point() {
        let reach = [2, 3, 4, 5].map(|f| (mean_field_reach(f) * 10_000.0).round() / 100.0);
        assert_eq!(reach, [79.68, 94.05, 98.02, 99.30]);
        assert_eq!(mean_field_reach(1), 0.0);
        assert!(mean_field_reach(8) > 0.9996 && mean_field_reach(8) < 1.0);
    }

    #[test]
    fn mean_field_atomic_falls_with_the_network_size() {
        let atomic = |n, f| (mean_field_atomic(n, f) * 1000.0).round() / 1000.0;
        assert_eq!([5, 6, 7, 8].map(|f| atomic(200, f)), [0.248, 0.605, 0.832, 0.935]);
        assert_eq!(atomic(10_000, 8), 0.035);
        assert_eq!(atomic(200, 1), 0.0);
    }
}
