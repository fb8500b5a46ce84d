//! Fig 15 in miniature: measure the CC(MM) / CC(Star) frontier over the
//! (dependence, min_sup) grid and compare it with the planner's choice —
//! driven through a [`CubeSession`] per table, so the advisor input is the
//! session's *measured* [`TableStats`] (real cardinalities, skew and
//! estimated dependence), not hand-filled figures.
//!
//! ```sh
//! cargo run --release --example algorithm_advisor
//! ```

use c_cubing::prelude::*;
use std::time::Instant;

fn main() {
    let tuples = 40_000;
    let cards = vec![20u32; 8];
    let min_sups = [1u64, 4, 16, 64];
    let dependences = [0.0, 1.0, 2.0, 3.0];

    println!("measured winner (CC(MM) vs CC(Star)) and planner prediction");
    println!("grid: T={tuples}, D=8, C=20, S=0  (planner input: measured TableStats)\n");
    print!("{:>6} |", "R\\M");
    for m in min_sups {
        print!(" {m:>20} |");
    }
    println!();

    let mut agree = 0;
    let mut total = 0;
    for r in dependences {
        print!("{r:>6} |");
        for m in min_sups {
            let rules = RuleSet::with_dependence(&cards, r, 99);
            let table = SyntheticSpec {
                tuples,
                cards: cards.clone(),
                skews: vec![0.0; 8],
                seed: 1,
                rules: Some(rules),
            }
            .generate();
            let mut session = CubeSession::new(table).expect("ordinary table");

            let mut time = |algo: Algorithm| {
                let start = Instant::now();
                session.query().min_sup(m).algorithm(algo).stats().unwrap();
                start.elapsed().as_secs_f64()
            };
            let mm = time(Algorithm::CCubingMm);
            let star = time(Algorithm::CCubingStar);
            let winner = if mm <= star {
                Algorithm::CCubingMm
            } else {
                Algorithm::CCubingStar
            };

            // The planner's pick from the *measured* statistics (the same
            // call `session.query().min_sup(m).plan()` resolves through).
            let predicted = session.recommend(m);
            total += 1;
            if winner == predicted {
                agree += 1;
            }
            let marker = if winner == predicted { "=" } else { "!" };
            print!(" {:>10}/{:<8}{marker} |", winner.name(), predicted.name());
        }
        println!();
    }
    println!(
        "\nmeasured/predicted agreement: {agree}/{total} \
         (expected shape: CC(Star) holds the low-min_sup, high-R corner)"
    );

    // What-if advisories with no table at hand fill the statistics in by
    // hand:
    let what_if = TableStats {
        tuples: 400_000,
        cardinalities: vec![2000],
        skews: vec![0.0],
        dependence: 0.0,
    };
    println!(
        "what-if (no table): T=400K, M=2, C=2000, R=0 -> {}",
        recommend(&what_if, 2)
    );
}
