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
}
