//! Protocol comparison: a miniature version of the paper's Figure 2 — the
//! reliability of gossip broadcast after massive failures, for all four
//! membership protocols.
//!
//! ```text
//! cargo run --release --example compare_protocols
//! ```

use hyparview_core::Config;
use hyparview_sim::protocols::ProtocolKind;
use hyparview_sim::{AnySim, Scenario};

const N: usize = 1_000;
const MESSAGES: usize = 100;
const FAILURES: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

fn main() {
    println!("mini Figure 2: mean reliability of {MESSAGES} broadcasts after failures");
    println!("(n = {N}, fanout 4, paper configurations)\n");

    print!("{:>9}", "failure");
    for kind in ProtocolKind::ALL {
        print!("{:>13}", kind.label());
    }
    println!();

    for failure in FAILURES {
        print!("{:>8.0}%", failure * 100.0);
        for kind in ProtocolKind::ALL {
            let scenario = Scenario::new(N, 99).with_fanout(4);
            let mut sim = AnySim::build(kind, &scenario, Config::paper());
            sim.run_cycles(20);
            sim.fail_fraction(failure);
            let mut total = 0.0;
            for _ in 0..MESSAGES {
                total += sim.broadcast_random().reliability();
            }
            print!("{:>12.1}%", total / MESSAGES as f64 * 100.0);
        }
        println!();
    }

    println!("\nexpected shape (paper): HyParView ≈ 100% everywhere; CyclonAcked high to ~70%;");
    println!("Cyclon and Scamp degrade sharply beyond 50% failures.");
}
